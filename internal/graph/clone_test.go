package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dkindex/internal/cow/cowtest"
)

// dumpGraph renders everything a reader can observe of g: the label table,
// the root, every node's label and both adjacency rows, and the posting
// lists.
func dumpGraph(g *Graph) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "root %d edges %d labels", g.Root(), g.NumEdges())
	for l := 0; l < g.Labels().Len(); l++ {
		fmt.Fprintf(&b, " %s=%v", g.Labels().Name(LabelID(l)), g.NodesWithLabel(LabelID(l)))
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := NodeID(n)
		fmt.Fprintf(&b, "\n%d %d %v %v", n, g.Label(id), g.Children(id), g.Parents(id))
	}
	return []byte(b.String())
}

// TestCloneIsolationProperty drives random node and edge writes through
// random members of a family of structurally sharing clones spanning three
// pages (see cowtest.Isolation).
func TestCloneIsolationProperty(t *testing.T) {
	cowtest.Isolation(t, 25, cowtest.Subject[*Graph]{
		New: func(rng *rand.Rand) *Graph {
			g := New()
			g.AddRoot()
			for n := 1; n < 300; n++ {
				g.AddEdge(NodeID(rng.Intn(n)), g.AddNode(string(rune('a'+rng.Intn(4)))))
			}
			return g
		},
		Clone: (*Graph).Clone,
		Mutate: func(rng *rand.Rand, g *Graph) {
			for op := 0; op < 6; op++ {
				from := NodeID(rng.Intn(g.NumNodes()))
				switch rng.Intn(4) {
				case 0:
					// Every fourth new node brings a label no other snapshot has.
					label := string(rune('a' + rng.Intn(4)))
					if rng.Intn(4) == 0 {
						label = fmt.Sprintf("fresh%d", g.NumNodes())
					}
					g.AddEdge(from, g.AddNode(label))
				case 1:
					if row := g.Children(from); len(row) > 0 {
						to := row[rng.Intn(len(row))]
						if !g.RemoveEdge(from, to) || g.HasEdge(from, to) {
							t.Fatalf("RemoveEdge(%d,%d) did not remove", from, to)
						}
					}
				default:
					to := NodeID(rng.Intn(g.NumNodes()))
					had := g.HasEdge(from, to)
					if g.AddEdge(from, to) == had || !g.HasEdge(from, to) {
						t.Fatalf("AddEdge(%d,%d) with the edge present=%v", from, to, had)
					}
				}
			}
		},
		Fingerprint: dumpGraph,
		Validate:    (*Graph).Validate,
	})
}
