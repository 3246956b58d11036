package index_test

import (
	"bytes"
	"math/rand"
	"slices"
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
// isolation, the A(k) propagate update with its repartitioning, and merges
// with the renumbering they make — through
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
				switch rng.Intn(7) {
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
				case 6:
					// Two or three nodes of one label become one, and the
					// last nodes move into the freed ids.
					nodes := ig.NodesWithLabel(ig.Label(node()))
					grp := []graph.NodeID{nodes.At(rng.Intn(nodes.Len()))}
					for i := rng.Intn(2); i >= 0; i-- {
						if n := nodes.At(rng.Intn(nodes.Len())); !slices.Contains(grp, n) {
							grp = append(grp, n)
						}
					}
					slices.Sort(grp)
					ig.MergeNodes([][]graph.NodeID{grp})
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

// TestAdjacencyCloneFamily drives data-edge insertions and removals through a
// family of snapshot generations, each cloned from a random earlier one, so
// that most writes change one count of an index edge a snapshot shares and
// some add or drop the edge itself. After every generation each member must
// still Validate — which re-derives the one count per index edge and the
// id-only parent mirror — and list exactly the children and parents a recount
// from its own data graph gives: a write into ids or counts a snapshot shares
// shows up in one that did not make it.
func TestAdjacencyCloneFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	g.AddRoot()
	for n := 1; n < cow.PageSize*cow.ChunkPages+50; n++ { // two directory chunks
		g.AddEdge(graph.NodeID(rng.Intn(n)), g.AddNode(string(rune('a'+rng.Intn(4)))))
	}
	family := []*index.IndexGraph{index.BuildAK(g, 1)}
	for gen := 0; gen < 30; gen++ {
		ig := family[rng.Intn(len(family))].Clone()
		n := ig.Data().NumNodes()
		for op := 0; op < 8; op++ {
			u := graph.NodeID(rng.Intn(n))
			if cs := ig.Data().Children(u); rng.Intn(2) == 0 && len(cs) > 0 {
				ig.RemoveDataEdge(u, cs[rng.Intn(len(cs))])
			} else {
				ig.AddDataEdge(u, 1+graph.NodeID(rng.Intn(n-1)))
			}
		}
		family = append(family, ig)
		for i, member := range family {
			if err := member.Validate(); err != nil {
				t.Fatalf("generation %d: member %d: %v", gen, i, err)
			}
			checkAdjacencyRecount(t, member)
		}
	}
}

// checkAdjacencyRecount compares ig's Children and Parents with the index
// edges its data graph induces.
func checkAdjacencyRecount(t *testing.T, ig *index.IndexGraph) {
	t.Helper()
	children := make([][]graph.NodeID, ig.NumNodes())
	parents := make([][]graph.NodeID, ig.NumNodes())
	for u := 0; u < ig.Data().NumNodes(); u++ {
		a := ig.IndexOf(graph.NodeID(u))
		for _, v := range ig.Data().Children(graph.NodeID(u)) {
			b := ig.IndexOf(v)
			children[a] = append(children[a], b)
			parents[b] = append(parents[b], a)
		}
	}
	for n := range children {
		slices.Sort(children[n])
		slices.Sort(parents[n])
		if got, want := ig.Children(graph.NodeID(n)), slices.Compact(children[n]); !slices.Equal(got, want) {
			t.Fatalf("index node %d lists children %v, its data graph gives %v", n, got, want)
		}
		if got, want := ig.Parents(graph.NodeID(n)), slices.Compact(parents[n]); !slices.Equal(got, want) {
			t.Fatalf("index node %d lists parents %v, its data graph gives %v", n, got, want)
		}
	}
}
