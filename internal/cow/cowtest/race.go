//go:build race

package cowtest

// RaceEnabled reports whether the tests were built with the race detector,
// under which sync.Pool drops a share of its Puts at random, so guards on
// what pooled scratch allocates cannot hold.
const RaceEnabled = true
