//go:build !race

package cowtest

const RaceEnabled = false
