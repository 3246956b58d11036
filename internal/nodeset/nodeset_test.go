package nodeset

import (
	"math/rand"
	"slices"
	"testing"

	"dkindex/internal/graph"
)

// genSorted returns n distinct ascending ids drawn from [0, span).
func genSorted(rng *rand.Rand, n int, span int) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, n)
	out := make([]graph.NodeID, 0, n)
	for len(out) < n {
		id := graph.NodeID(rng.Intn(span))
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func toSlice(s Set) []graph.NodeID {
	var out []graph.NodeID
	s.Iterate(func(id graph.NodeID) bool {
		out = append(out, id)
		return true
	})
	return out
}

func TestFromSortedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]graph.NodeID{
		nil,
		{0},
		{65535},
		{65536},
		{0, 1, 2, 65535, 65536, 65537, 131072},
		genSorted(rng, 100, 1000),
		genSorted(rng, 5000, 6000),    // dense single chunk
		genSorted(rng, 20000, 300000), // sparse multi chunk
		genSorted(rng, 60000, 65536),  // nearly full chunk
	}
	for ci, ids := range cases {
		s := FromSorted(ids)
		if s.Len() != len(ids) {
			t.Fatalf("case %d: Len=%d want %d", ci, s.Len(), len(ids))
		}
		got := s.AppendTo(nil)
		if !slices.Equal(got, ids) {
			t.Fatalf("case %d: AppendTo mismatch", ci)
		}
		if !slices.Equal(toSlice(s), ids) {
			t.Fatalf("case %d: Iterate mismatch", ci)
		}
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	for _, bad := range [][]graph.NodeID{{2, 1}, {1, 1}, {70000, 70000}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FromSorted(%v) did not panic", bad)
				}
			}()
			FromSorted(bad)
		}()
	}
}

func TestIterateEarlyStop(t *testing.T) {
	s := FromSorted([]graph.NodeID{1, 2, 3, 70000, 70001})
	var got []graph.NodeID
	s.Iterate(func(id graph.NodeID) bool {
		got = append(got, id)
		return len(got) < 2
	})
	if !slices.Equal(got, []graph.NodeID{1, 2}) {
		t.Fatalf("early stop got %v", got)
	}
}

func refUnion(a, b []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID{}, a...)
	for _, x := range b {
		if !slices.Contains(a, x) {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

func TestSetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct{ n, span int }{
		{0, 1}, {1, 100}, {50, 200}, {300, 400},
		{5000, 5500},    // dense
		{3000, 300000},  // sparse, multi chunk
		{10000, 70000},  // dense + sparse mix
		{64000, 131072}, // two dense-ish chunks
	}
	for trial := 0; trial < 30; trial++ {
		sa := shapes[rng.Intn(len(shapes))]
		sb := shapes[rng.Intn(len(shapes))]
		a := genSorted(rng, sa.n, sa.span)
		b := genSorted(rng, sb.n, sb.span)
		A, B := FromSorted(a), FromSorted(b)

		if got, want := toSlice(Union(A, B)), refUnion(a, b); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Union mismatch: got %d want %d members", trial, len(got), len(want))
		}
	}
}

func TestMergeAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		// Disjoint sets plus a sorted extra slice, mirroring result assembly.
		universe := genSorted(rng, 4000+rng.Intn(60000), 400000)
		rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
		nsets := 1 + rng.Intn(5)
		parts := make([][]graph.NodeID, nsets+1)
		for _, id := range universe {
			p := rng.Intn(nsets + 1)
			parts[p] = append(parts[p], id)
		}
		sets := make([]Set, nsets)
		for i := 0; i < nsets; i++ {
			slices.Sort(parts[i])
			sets[i] = FromSorted(parts[i])
		}
		extra := parts[nsets]
		slices.Sort(extra)

		got := MergeAppend([]graph.NodeID{7}, sets, extra)
		slices.Sort(universe)
		want := append([]graph.NodeID{7}, universe...)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: MergeAppend mismatch: got %d want %d members", trial, len(got), len(want))
		}
	}
	if out := MergeAppend(nil, nil, nil); len(out) != 0 {
		t.Fatalf("empty merge returned %v", out)
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sparse := FromSorted(genSorted(rng, 100, 60000))
	dense := FromSorted(genSorted(rng, 6000, 6500))
	var st Stats
	sparse.AddStats(&st)
	if st.SparseContainers == 0 || st.DenseContainers != 0 {
		t.Fatalf("sparse stats wrong: %+v", st)
	}
	dense.AddStats(&st)
	if st.DenseContainers == 0 {
		t.Fatalf("dense stats wrong: %+v", st)
	}
	if st.Bytes() <= 0 {
		t.Fatalf("non-positive byte accounting")
	}
	// The compressed form must beat 4 bytes/id on clustered data.
	var ds Stats
	dense.AddStats(&ds)
	if raw := 4 * dense.Len(); ds.Bytes() >= raw {
		t.Fatalf("dense set %d bytes >= raw %d", ds.Bytes(), raw)
	}
}
