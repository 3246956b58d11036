package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dkindex/internal/graph"
	"dkindex/internal/partition"
)

type genSpec struct {
	Seed   int64
	Nodes  uint8
	Labels uint8
	Extra  uint8
}

func (s genSpec) build() *graph.Graph {
	nodes := int(s.Nodes%120) + 2
	labels := int(s.Labels%5) + 1
	extra := int(s.Extra % 60)
	return randomGraph(s.Seed, nodes, labels, extra)
}

// Property: every builder yields a structurally valid index whose extents
// partition the data nodes and whose edges mirror data edges (all checked by
// Validate), for arbitrary graphs and k.
func TestQuickBuildersAlwaysValid(t *testing.T) {
	f := func(s genSpec, kk uint8) bool {
		g := s.build()
		k := int(kk % 5)
		for _, ig := range []*IndexGraph{
			BuildLabelSplit(g),
			BuildAK(g, k),
			Build1Index(g),
		} {
			if ig.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: random sequences of splits and data-edge insertions keep the
// incremental adjacency identical to a from-scratch reconstruction.
func TestQuickIncrementalAdjacencyMatchesRebuild(t *testing.T) {
	f := func(s genSpec, ops uint8, opSeed int64) bool {
		g := s.build()
		ig := BuildAK(g, 1)
		rng := rand.New(rand.NewSource(opSeed))
		for i := 0; i < int(ops%30); i++ {
			switch rng.Intn(3) {
			case 0: // random split
				b := graph.NodeID(rng.Intn(ig.NumNodes()))
				ig.SplitNode(b, func(graph.NodeID) bool { return rng.Intn(2) == 0 })
			case 1: // isolate a data node
				ig.IsolateDataNode(graph.NodeID(rng.Intn(g.NumNodes())))
			case 2: // new data edge
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				if u != v && v != g.Root() {
					ig.AddDataEdge(u, v)
				}
			}
		}
		return ig.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the A(k) propagate update never under-splits — after arbitrary
// edge insertions, extents refine the true k-bisimulation of the updated
// graph.
func TestQuickAKUpdateRefinesTruth(t *testing.T) {
	f := func(s genSpec, kk uint8, opSeed int64) bool {
		g := s.build()
		k := int(kk%3) + 1
		ig := BuildAK(g, k)
		rng := rand.New(rand.NewSource(opSeed))
		for i := 0; i < 8; i++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if u == v || v == g.Root() || g.HasEdge(u, v) {
				continue
			}
			AKEdgeUpdate(ig, k, u, v)
		}
		if ig.Validate() != nil {
			return false
		}
		truth, _ := partition.KBisimulation(g, k)
		for n := 0; n < ig.NumNodes(); n++ {
			ext := ig.Extent(graph.NodeID(n))
			b := truth.BlockOf(ext[0])
			for _, d := range ext[1:] {
				if truth.BlockOf(d) != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: under randomized mixed mutation sequences — splits, isolations,
// edge insertions AND removals — the label lists and the counted
// adjacency stay exactly consistent with a brute-force re-derivation:
// NodesWithLabel(l) lists precisely the ascending index nodes labeled l, and
// Children/Parents list ascending exactly the neighbours whose data-edge
// count matches a recount, each mirrored by the other side (both checked by
// Validate), so label-list query seeding can never drift from a full scan.
func TestQuickPostingListsConsistentUnderMixedOps(t *testing.T) {
	f := func(s genSpec, ops uint8, opSeed int64) bool {
		g := s.build()
		ig := BuildAK(g, 2)
		rng := rand.New(rand.NewSource(opSeed))
		type edge struct{ u, v graph.NodeID }
		var added []edge
		for i := 0; i < int(ops%40); i++ {
			switch rng.Intn(4) {
			case 0:
				b := graph.NodeID(rng.Intn(ig.NumNodes()))
				ig.SplitNode(b, func(graph.NodeID) bool { return rng.Intn(2) == 0 })
			case 1:
				ig.IsolateDataNode(graph.NodeID(rng.Intn(g.NumNodes())))
			case 2:
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				if u != v && v != g.Root() && !g.HasEdge(u, v) {
					ig.AddDataEdge(u, v)
					added = append(added, edge{u, v})
				}
			case 3:
				if len(added) > 0 {
					j := rng.Intn(len(added))
					e := added[j]
					added = append(added[:j], added[j+1:]...)
					ig.RemoveDataEdge(e.u, e.v)
				}
			}
		}
		if ig.Validate() != nil || g.Validate() != nil {
			return false
		}
		// Label lists against a brute-force label scan, and against the
		// lists graph.MakeLabelLists builds from scratch.
		fresh := graph.MakeLabelLists(ig.NumLabels(), ig.NumNodes(), ig.Label)
		for l := 0; l < ig.NumLabels(); l++ {
			var want []graph.NodeID
			for n := 0; n < ig.NumNodes(); n++ {
				if ig.Label(graph.NodeID(n)) == graph.LabelID(l) {
					want = append(want, graph.NodeID(n))
				}
			}
			got, built := ig.NodesWithLabel(graph.LabelID(l)), fresh.Of(graph.LabelID(l))
			if !slices.Equal(got.AppendTo(nil), want) || !slices.Equal(built.AppendTo(nil), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
