package nodeset

import (
	"math"
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

		got := MergeAppend([]graph.NodeID{7}, sets, extra, math.MaxInt)
		slices.Sort(universe)
		want := append([]graph.NodeID{7}, universe...)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: MergeAppend mismatch: got %d want %d members", trial, len(got), len(want))
		}
		checkPrefixes(t, sets, extra, append(extraCuts(rng, len(universe)), 0))
	}
	if out := MergeAppend(nil, nil, nil, math.MaxInt); len(out) != 0 {
		t.Fatalf("empty merge returned %v", out)
	}

	// One stream of each kind per chunk, ids past 2^16: chunk 0 is a dense
	// extent that shares its chunk with validation hits (the pooled-bitmap
	// merge), chunk 1 a sparse extent alone, chunk 2 hits alone and chunk 3 a
	// dense extent alone.
	var dense0, sparse1, hits, dense3 []graph.NodeID
	for i := range 6000 {
		dense0 = append(dense0, graph.NodeID(2*i))
	}
	for i := range 50 {
		hits = append(hits, graph.NodeID(2*i+1))
	}
	for i := range 1000 {
		sparse1 = append(sparse1, graph.NodeID(1<<16+3*i))
	}
	for i := range 40 {
		hits = append(hits, graph.NodeID(2<<16+5*i))
	}
	for i := range 5000 {
		dense3 = append(dense3, graph.NodeID(3<<16+i))
	}
	sets := []Set{FromSorted(dense3), FromSorted(sparse1), FromSorted(dense0)}
	checkPrefixes(t, sets, hits, []int{25, 3000, 6050 + 500, 6050 + 1000 + 20, 6050 + 1000 + 40 + 2500})
	// The single-stream fast paths: one set spanning a dense and a sparse
	// chunk, and hits alone.
	checkPrefixes(t, []Set{{}, FromSorted(append(dense0, sparse1...)), {}}, nil, []int{3000, 6000 + 500})
	checkPrefixes(t, nil, hits, []int{25})
}

// extraCuts returns a few random prefix lengths of a union of total members.
func extraCuts(rng *rand.Rand, total int) []int {
	return []int{rng.Intn(total + 1), rng.Intn(total + 1)}
}

// checkPrefixes checks MergeAppend at n = 0, 1, total, total+1, at each
// given cut, and around every 2^16 chunk boundary of the union: each result
// must be the prefix of the full merge, appended after what dst held.
func checkPrefixes(t *testing.T, sets []Set, extra []graph.NodeID, cuts []int) {
	t.Helper()
	full := MergeAppend(nil, sets, extra, math.MaxInt)
	total := len(full)
	cuts = append(cuts, 0, 1, total, total+1)
	for i := 1; i < total; i++ {
		if key16(full[i]) != key16(full[i-1]) {
			cuts = append(cuts, i-1, i, i+1)
		}
	}
	for _, n := range cuts {
		got := MergeAppend([]graph.NodeID{-1}, sets, extra, n)
		want := append([]graph.NodeID{-1}, full[:min(n, total)]...)
		if !slices.Equal(got, want) {
			t.Fatalf("MergeAppend of the first %d of %d members: got %d members, want %d", n, total, len(got)-1, len(want)-1)
		}
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

// checkExactBlocks fails when a sparse container of s holds spare capacity:
// every varint-delta block is allocated at exactly its encoded length.
func checkExactBlocks(t *testing.T, what string, s Set) {
	t.Helper()
	for i, c := range s.cons {
		if c.blk != nil && cap(c.blk) != len(c.blk) {
			t.Fatalf("%s: chunk %d's block has cap %d for %d bytes", what, s.keys[i], cap(c.blk), len(c.blk))
		}
	}
}

// TestBlocksAreSizedExactly builds sparse blocks whose gaps need one, two
// and three varint bytes (gaps below 128, from 128 and from 16 384), through
// FromSorted and through Union's re-encoding of a shared chunk, and checks
// that each block is allocated at its encoded length and decodes back.
func TestBlocksAreSizedExactly(t *testing.T) {
	var a, b []graph.NodeID
	for c := graph.NodeID(0); c < 3; c++ { // three chunks
		base := c << 16
		a = append(a, base+3, base+4, base+200, base+20_000, base+40_000, base+40_130)
		b = append(b, base+5, base+1_000, base+17_000, base+60_000)
	}
	a = append(a, 5<<16+70) // a chunk of a alone, shared structurally by Union
	A, B := FromSorted(a), FromSorted(b)
	checkExactBlocks(t, "FromSorted(a)", A)
	checkExactBlocks(t, "FromSorted(b)", B)
	U := Union(A, B)
	checkExactBlocks(t, "Union", U)
	if got, want := toSlice(U), refUnion(a, b); !slices.Equal(got, want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
	var st Stats
	U.AddStats(&st)
	if st.SparseContainers != 4 || st.DenseContainers != 0 {
		t.Fatalf("want four sparse chunks, got %+v", st)
	}
	// Chunk 0 of the union: 3 and the gaps 1 and 1 (a byte each), 195, 800,
	// 16 000 and 3 000 (two each), 20 000 (three), 130 (two) and 19 870
	// (three): 19 bytes.
	if n := len(U.cons[0].blk); n != 19 {
		t.Fatalf("chunk 0 of the union encodes in %d bytes, want 19", n)
	}
}
