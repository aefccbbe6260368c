//go:build !race

package integration

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
