//go:build !race

package dkindex

const raceEnabled = false
