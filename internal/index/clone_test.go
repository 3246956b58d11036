package index_test

import (
	"bytes"
	"math/rand"
	"testing"

	"dkindex/internal/codec"
	"dkindex/internal/core"
	"dkindex/internal/cow"
	"dkindex/internal/cow/cowtest"
	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// TestCloneIsolationProperty drives every index-graph mutator — data-edge
// insertion and removal, extent splits, similarity writes, singleton
// isolation and the A(k) propagate update with its repartitioning — through
// random members of a family of structurally sharing clones (see
// cowtest.Isolation). The fingerprint is the codec's serialization of the
// index and its data graph; adjacency, which the codec re-derives on load,
// is covered by Validate on every member.
func TestCloneIsolationProperty(t *testing.T) {
	cowtest.Isolation(t, 15, cowtest.Subject[*index.IndexGraph]{
		New: func(rng *rand.Rand) *index.IndexGraph {
			g := graph.New()
			g.AddRoot()
			for n := 1; n < 2*cow.PageSize*cow.ChunkPages+100; n++ { // three directory chunks
				g.AddEdge(graph.NodeID(rng.Intn(n)), g.AddNode(string(rune('a'+rng.Intn(4)))))
			}
			return index.BuildAK(g, 1)
		},
		Clone: (*index.IndexGraph).Clone,
		Mutate: func(rng *rand.Rand, ig *index.IndexGraph) {
			data := func() graph.NodeID { return graph.NodeID(rng.Intn(ig.Data().NumNodes())) }
			node := func() graph.NodeID { return graph.NodeID(rng.Intn(ig.NumNodes())) }
			for op := 0; op < 6; op++ {
				switch rng.Intn(6) {
				case 0:
					ig.AddDataEdge(data(), 1+graph.NodeID(rng.Intn(ig.Data().NumNodes()-1)))
				case 1:
					if u := data(); len(ig.Data().Children(u)) > 0 {
						ig.RemoveDataEdge(u, ig.Data().Children(u)[0])
					}
				case 2:
					ig.SplitNode(node(), func(graph.NodeID) bool { return rng.Intn(2) == 0 })
				case 3:
					ig.SetK(node(), rng.Intn(5))
				case 4:
					ig.IsolateDataNode(data())
				case 5:
					index.AKEdgeUpdate(ig, 1, data(), 1+graph.NodeID(rng.Intn(ig.Data().NumNodes()-1)))
				}
			}
		},
		Fingerprint: func(ig *index.IndexGraph) []byte {
			var buf bytes.Buffer
			if err := codec.SaveDK(&buf, &core.DK{IG: ig}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		Validate: func(ig *index.IndexGraph) error {
			if err := ig.Data().Validate(); err != nil {
				return err
			}
			return ig.Validate()
		},
	})
}
