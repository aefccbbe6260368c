package relation

// DiffReadCSV lets the external tests, which generate the benchmark
// shapes through internal/dataset (an importer of this package), hold
// ReadCSV to the reference encoder.
var DiffReadCSV = diffReadCSV
