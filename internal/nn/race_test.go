//go:build race

package nn

// raceEnabled: under the race detector sync.Pool drops a random share of
// what it is given, so allocation counts of pooled paths are not exact.
const raceEnabled = true
