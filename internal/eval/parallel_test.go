package eval

import (
	"runtime"
	"testing"

	"dkindex/internal/graph"
)

// Extents smaller than the CPU count must not fan out wider than they are:
// with the pool path forced, a one- or two-member extent is validated in
// order, once per member, with every charge counted.
func TestParallelValidationTinyExtents(t *testing.T) {
	old := validateParallelThreshold
	validateParallelThreshold = 1
	defer func() { validateParallelThreshold = old }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	for n := 0; n <= 3; n++ {
		ext := make([]graph.NodeID, n)
		for i := range ext {
			ext[i] = graph.NodeID(10 + i)
		}
		hits, charged := validateMembers([]graph.NodeID{7}, ext, true, func(dst, members []graph.NodeID) ([]graph.NodeID, int) {
			for _, d := range members {
				if d != 11 {
					dst = append(dst, d)
				}
			}
			return dst, 2 * len(members)
		})
		want := []graph.NodeID{7}
		for _, d := range ext {
			if d != 11 {
				want = append(want, d)
			}
		}
		if !SameResult(hits, want) || charged != 2*n {
			t.Fatalf("%d members: hits %v charged %d, want %v and %d", n, hits, charged, want, 2*n)
		}
	}
}
