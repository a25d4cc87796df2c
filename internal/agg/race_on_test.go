//go:build race

package agg_test

// raceEnabled reports that the race detector is active; it randomizes
// sync.Pool reuse, so allocation-count assertions are skipped.
const raceEnabled = true
