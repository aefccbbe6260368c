//go:build !race

package partition

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
