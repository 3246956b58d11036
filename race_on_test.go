//go:build race

package dkindex

// raceEnabled reports whether the tests were built with the race detector,
// under which sync.Pool drops a share of its Puts at random, so guards on
// what pooled scratch allocates cannot hold.
const raceEnabled = true
