package experiments

import (
	"slices"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/oracle"
	"dkindex/internal/partition"
)

// The construction fast path (CSR adjacency snapshots, counting-sort
// signature grouping, pooled scratch) must be block-identical to the
// signature-map refinement of internal/oracle: the same partition with the
// same canonical block numbering. The D(k) builds must equal the oracle's own
// Algorithms 1 and 2 (broadcast, rounds, clamping, lowering and extents, none
// of it shared with core) node for node. This audit runs both over every
// construction the experiments report — the A(k) series, 1-index, F&B, the
// load-tuned D(k), demotion via Theorem 2, and rebuild-after-updates with
// similarity clamping — on each dataset. make stress runs it under -race.

func testDblp(t *testing.T) *Dataset {
	t.Helper()
	ds, err := DblpDataset(0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// igIdentical asserts an index graph is the oracle's D(k)-index node for
// node: labels, local similarities, extents and adjacency. Canonical
// partition numbering makes this the expected outcome — not just
// isomorphism.
func igIdentical(t *testing.T, name string, got *index.IndexGraph, want *oracle.DK) {
	t.Helper()
	if got.NumNodes() != len(want.Label) {
		t.Fatalf("%s: %d index nodes, reference built %d", name, got.NumNodes(), len(want.Label))
	}
	for n := range want.Label {
		id := graph.NodeID(n)
		if got.Label(id) != want.Label[n] {
			t.Fatalf("%s: node %d label %d, reference %d", name, n, got.Label(id), want.Label[n])
		}
		if got.K(id) != want.K[n] {
			t.Fatalf("%s: node %d k=%d, reference k=%d", name, n, got.K(id), want.K[n])
		}
		if !slices.Equal(got.Extent(id), want.Extent[n]) {
			t.Fatalf("%s: node %d extent diverges", name, n)
		}
		if !slices.Equal(got.Children(id), want.Children[n]) {
			t.Fatalf("%s: node %d children diverge", name, n)
		}
		if !slices.Equal(got.Parents(id), want.Parents[n]) {
			t.Fatalf("%s: node %d parents diverge", name, n)
		}
	}
}

func auditBuilds(t *testing.T, ds *Dataset) {
	t.Helper()
	maxK := ds.W.MaxLength()
	reqs := ds.W.Requirements()

	// Bisimulation family: fixpoint, the A(k) ladder, and F&B.
	fp, fr := partition.Bisimulation(ds.G)
	rp, rr := oracle.Bisimulation(ds.G)
	if fr != rr || !oracle.Identical(fp, rp) {
		t.Fatalf("Bisimulation diverges from reference (rounds %d vs %d)", fr, rr)
	}
	for k := 0; k <= maxK; k++ {
		fp, fr = partition.KBisimulation(ds.G, k)
		rp, rr = oracle.KBisimulation(ds.G, k)
		if fr != rr || !oracle.Identical(fp, rp) {
			t.Fatalf("KBisimulation(%d) diverges from reference", k)
		}
	}
	fp, fr = partition.FBBisimulation(ds.G)
	rp, rr = oracle.FBBisimulation(ds.G)
	if fr != rr || !oracle.Identical(fp, rp) {
		t.Fatalf("FBBisimulation diverges from reference")
	}

	// D(k) construction (Algorithm 2) with the load-tuned requirements.
	dk := core.Build(ds.G, reqs)
	ref := oracle.BuildDK(ds.G, reqs)
	igIdentical(t, "D(k)", dk.IG, ref)
	if dk.Stats.Rounds != ref.Rounds || dk.Stats.Splits != ref.Splits ||
		dk.Stats.PeakBlocks != ref.PeakBlocks {
		t.Fatalf("D(k) stats diverge: %+v vs rounds %d, splits %d, peak blocks %d",
			dk.Stats, ref.Rounds, ref.Splits, ref.PeakBlocks)
	}

	// Theorem 2 rebuilds: demotion (index as construction source) ...
	lowered := reqs.Clone()
	for l, k := range lowered {
		if k > 1 {
			lowered[l] = k - 1
		}
	}
	igIdentical(t, "demote",
		core.BuildFromIndex(dk.IG, lowered).IG,
		oracle.BuildDKFromIndex(dk.IG, lowered))

	// ... and rebuild after updates, where decayed similarities force the
	// memberK clamp + lowering path.
	edges, err := ds.RandomEdges(20, 9)
	if err != nil {
		t.Fatal(err)
	}
	sub := ds.withGraph(ds.G.Clone())
	upd := core.Build(sub.G, sub.W.Requirements())
	for _, e := range edges {
		upd.AddEdge(e[0], e[1])
	}
	igIdentical(t, "rebuild-after-updates",
		core.BuildFromIndex(upd.IG, reqs).IG,
		oracle.BuildDKFromIndex(upd.IG, reqs))

	// Per-round origin lineage with partial selectors, on the real dataset
	// (the quick tests cover random graphs; this covers skewed real shapes).
	fastP := partition.NewByLabel(ds.G)
	refP := oracle.NewByLabel(ds.G)
	refiner := partition.NewRefiner(ds.G)
	for round := 0; round < 3; round++ {
		sel := func(b partition.BlockID) bool { return int(b)%3 != round%3 }
		fres := refiner.Round(fastP, sel)
		rres := refP.Round(ds.G.Parents, sel)
		if fres.Changed != rres.Changed || !slices.Equal(fres.Origin, rres.Origin) {
			t.Fatalf("round %d: origin lineage diverges", round)
		}
		if !oracle.Identical(fastP, refP) {
			t.Fatalf("round %d: selective refinement diverges", round)
		}
	}
}

func TestBuildPartitionIdentityXMark(t *testing.T) {
	auditBuilds(t, testXMark(t))
}

func TestBuildPartitionIdentityNasa(t *testing.T) {
	auditBuilds(t, testNasa(t))
}

func TestBuildPartitionIdentityDblp(t *testing.T) {
	auditBuilds(t, testDblp(t))
}
