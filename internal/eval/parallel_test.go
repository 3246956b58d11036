package eval

import (
	"math/rand"
	"runtime"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/rpe"
)

// Forcing the worker-pool path (threshold 1) must leave results and every
// cost counter bit-identical to the serial reference: per-member validation
// is independent and per-chunk charges are summed in chunk order.
func TestParallelValidationBitIdentical(t *testing.T) {
	old := validateParallelThreshold
	validateParallelThreshold = 1
	defer func() { validateParallelThreshold = old }()

	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 300, 4, 80)
		rng := rand.New(rand.NewSource(seed * 17))
		// Label split has the coarsest extents, so every unsound match
		// validates a large member list through the pool.
		indexes := []*index.IndexGraph{
			index.BuildLabelSplit(g),
			index.BuildAK(g, 1),
		}
		for qi := 0; qi < 20; qi++ {
			q := randomQuery(rng, g, 2+rng.Intn(4))
			for ii, ig := range indexes {
				res, c := Index(ig, q)
				wantRes, wantC := ReferenceIndex(ig, q)
				if !SameResult(res, wantRes) || c != wantC {
					t.Fatalf("seed %d index %d query %s: parallel %v/%+v != serial %v/%+v",
						seed, ii, q.Format(g.Labels()), res, c, wantRes, wantC)
				}
			}
		}
	}
}

func TestParallelValidationRPEBitIdentical(t *testing.T) {
	old := validateParallelThreshold
	validateParallelThreshold = 1
	defer func() { validateParallelThreshold = old }()

	g := randomGraph(3, 300, 4, 80)
	ig := index.BuildLabelSplit(g)
	for _, src := range []string{"a.b", "a._*", "(a|b).c?", "b._.d"} {
		e, err := rpe.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c := rpe.CompileExpr(e, g.Labels())
		res, cost := IndexRPE(ig, c)
		wantRes, wantCost := ReferenceIndexRPE(ig, c)
		if !SameResult(res, wantRes) || cost != wantCost {
			t.Fatalf("%s: parallel %+v != serial %+v", src, cost, wantCost)
		}
	}
}

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
		hits, charged := validateMembers([]graph.NodeID{7}, ext, func(d graph.NodeID, charge func(graph.NodeID)) bool {
			charge(d)
			charge(d)
			return d != 11
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
