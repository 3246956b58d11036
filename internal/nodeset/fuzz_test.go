package nodeset

import (
	"math"
	"slices"
	"testing"

	"dkindex/internal/graph"
)

// FuzzFromSortedAlgebra cross-checks the set kernels, Union and MergeAppend,
// against slice oracles on fuzzer-chosen inputs, and MergeAppend of every
// prefix length checkPrefixes tries against the full merge.
func FuzzFromSortedAlgebra(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, uint16(1))
	f.Add([]byte{0}, []byte{}, uint16(9))
	f.Add([]byte{255, 255, 255}, []byte{1}, uint16(300))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, stride uint16) {
		a := idsFromBytes(rawA, stride)
		b := idsFromBytes(rawB, stride)
		A, B := FromSorted(a), FromSorted(b)
		if got, want := toSlice(Union(A, B)), refUnion(a, b); !slices.Equal(got, want) {
			t.Fatalf("Union mismatch")
		}
		// MergeAppend takes disjoint sets: a's members outside b, then b.
		var onlyA []graph.NodeID
		for _, x := range a {
			if !slices.Contains(b, x) {
				onlyA = append(onlyA, x)
			}
		}
		sets := []Set{FromSorted(onlyA)}
		got := MergeAppend(nil, sets, b, math.MaxInt)
		if want := refUnion(a, b); !slices.Equal(got, want) {
			t.Fatalf("MergeAppend mismatch")
		}
		checkPrefixes(t, sets, b, []int{len(got) / 2})
	})
}

// idsFromBytes turns fuzz bytes into a strictly ascending id slice: each byte
// advances the cursor by 1..256 scaled by stride, crossing chunk boundaries
// when stride is large.
func idsFromBytes(raw []byte, stride uint16) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(raw))
	cur := graph.NodeID(-1)
	for _, c := range raw {
		cur += graph.NodeID(c)*graph.NodeID(stride%512+1) + 1
		ids = append(ids, cur)
	}
	return ids
}
