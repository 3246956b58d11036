package index_test

import (
	"math/rand"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/oracle"
)

// TestMergeNodesMatchesFromPartition merges the nodes of an A(2)-index label
// by label, lowest label first, one MergeNodes call per label so that later
// groups name nodes an earlier call moved: the result must be the
// label-split index, node for node up to numbering, with its edge counts.
func TestMergeNodesMatchesFromPartition(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		g.AddRoot()
		for n := 1; n < 400; n++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), g.AddNode(string(rune('a'+rng.Intn(5)))))
		}
		for e := 0; e < 80; e++ {
			g.AddEdge(graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(1+rng.Intn(g.NumNodes()-1)))
		}
		ig := index.BuildAK(g, 2)
		for n := range ig.NumNodes() {
			ig.SetK(graph.NodeID(n), 0)
		}
		for l := range graph.LabelID(g.Labels().Len()) {
			nodes := ig.NodesWithLabel(l)
			if nodes.Len() > 1 {
				ig.MergeNodes([][]graph.NodeID{nodes.AppendTo(nil)})
			}
			if err := ig.Validate(); err != nil {
				t.Fatalf("seed %d, after merging label %d: %v", seed, l, err)
			}
		}
		if diff := oracle.SameIndex(ig, index.BuildLabelSplit(g)); diff != "" {
			t.Fatalf("seed %d: merged A(2)-index is not the label-split index: %s", seed, diff)
		}
	}
}
