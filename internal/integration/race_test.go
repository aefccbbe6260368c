//go:build race

package integration

// raceEnabled reports whether the tests run under the race detector,
// which slows discovery runs about tenfold.
const raceEnabled = true
