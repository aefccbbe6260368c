//go:build race

package partition

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop a random share of its puts, so allocation
// counts that rely on pooled scratch do not hold there.
const raceEnabled = true
