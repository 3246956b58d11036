// Package cowtest holds the isolation property every copy-on-write container
// in this repository is tested against (graph.Graph, index.IndexGraph,
// core.DK): after Clone, a write through one snapshot is never visible
// through any other, however many generations share the written page.
package cowtest

import (
	"bytes"
	"math/rand"
	"testing"
)

// Subject adapts one container type to Isolation.
type Subject[T any] struct {
	// New builds a fresh container from the seeded source.
	New func(rng *rand.Rand) T
	// Clone is the container's Clone.
	Clone func(T) T
	// Mutate drives a few random writes through v.
	Mutate func(rng *rand.Rand, v T)
	// Fingerprint serializes everything observable of v.
	Fingerprint func(v T) []byte
	// Validate checks v's structural invariants.
	Validate func(v T) error
}

// Isolation grows, for each seed, a family of five snapshots — each cloned
// from a randomly chosen earlier one, so there are clones of clones and
// sibling clones of one parent, and untouched pages are shared by all five —
// and after every clone mutates randomly chosen members, originals and clones
// alike. Every other member's fingerprint must stay byte-identical and every
// member must stay valid.
func Isolation[T any](t *testing.T, seeds int, s Subject[T]) {
	t.Helper()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		family := []T{s.New(rng)}
		for len(family) < 5 {
			family = append(family, s.Clone(family[rng.Intn(len(family))]))
			for round := 0; round < 4; round++ {
				before := make([][]byte, len(family))
				for i, v := range family {
					before[i] = s.Fingerprint(v)
				}
				victim := rng.Intn(len(family))
				s.Mutate(rng, family[victim])
				for i, v := range family {
					if i != victim && !bytes.Equal(before[i], s.Fingerprint(v)) {
						t.Fatalf("seed %d: a write through snapshot %d of %d is visible through snapshot %d",
							seed, victim, len(family), i)
					}
					if err := s.Validate(v); err != nil {
						t.Fatalf("seed %d: snapshot %d invalid after a write through snapshot %d: %v",
							seed, i, victim, err)
					}
				}
			}
		}
	}
}
