package runstate

// EncodeFile exposes the snapshot encoder to the external benchmark, which
// imports the drivers that import this package.
var EncodeFile = encodeFile
