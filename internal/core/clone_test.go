package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/cow/cowtest"
	"dkindex/internal/graph"
)

// TestCloneIsolationProperty drives the D(k) update algorithms — edge
// addition and removal (Algorithms 4–5), document grafts (Algorithm 3),
// promotion of a node and of a label (Algorithm 6) and demotion — through
// random members of a family of structurally sharing DK clones (see
// cowtest.Isolation). Every untouched member must keep its codec.SaveDK
// bytes; every member must keep the index invariants and Definition 3.
//
// Algorithm 3 has to be caught both ways: grafting the document onto the
// index graph it was handed, where every page it writes is one the family may
// share, and materialising a new one.
func TestCloneIsolationProperty(t *testing.T) {
	var grafted, rebuilt int
	defer func() {
		t.Logf("documents: %d grafted in place, %d materialised anew", grafted, rebuilt)
		if grafted == 0 || rebuilt == 0 {
			t.Error("one of Algorithm 3's two branches was never taken")
		}
	}()
	cowtest.Isolation(t, 12, cowtest.Subject[*core.DK]{
		New: func(rng *rand.Rand) *core.DK {
			g := graph.New()
			g.AddRoot()
			for n := 1; n < 300; n++ {
				g.AddEdge(graph.NodeID(rng.Intn(n)), g.AddNode(string(rune('a'+rng.Intn(4)))))
			}
			return core.Build(g, core.ReqsFromNames(g.Labels(), map[string]int{"a": 2, "c": 1}))
		},
		Clone: (*core.DK).Clone,
		Mutate: func(rng *rand.Rand, dk *core.DK) {
			for op := 0; op < 4; op++ {
				g := dk.IG.Data()
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := 1 + graph.NodeID(rng.Intn(g.NumNodes()-1))
				label := graph.LabelID(1 + rng.Intn(4)) // a..d; 0 is ROOT
				switch rng.Intn(7) {
				case 0, 1:
					dk.AddEdge(u, v)
				case 2:
					if g.OutDegree(u) > 0 {
						dk.RemoveEdge(u, g.Children(u)[rng.Intn(g.OutDegree(u))])
					}
				case 3:
					// A three-node document; every other one brings a new label.
					h := graph.New()
					r := h.AddRoot()
					top := h.AddNode("a")
					h.AddEdge(r, top)
					leaf := "b"
					if rng.Intn(2) == 0 {
						leaf = fmt.Sprintf("fresh%d", g.NumNodes())
					}
					h.AddEdge(top, h.AddNode(leaf))
					before := dk.IG
					if _, err := dk.AddSubgraph(h); err != nil {
						t.Fatal(err)
					}
					if dk.IG == before {
						grafted++
					} else {
						rebuilt++
					}
				case 4:
					dk.Promote(dk.IG.IndexOf(v), 1+rng.Intn(2))
				case 5:
					dk.PromoteLabel(label, 1+rng.Intn(2))
				case 6:
					dk.Demote(core.Requirements{label: rng.Intn(2)})
				}
			}
		},
		Fingerprint: func(dk *core.DK) []byte { return saved(t, dk) },
		Validate: func(dk *core.DK) error {
			if err := dk.IG.Data().Validate(); err != nil {
				return err
			}
			if err := dk.IG.Validate(); err != nil {
				return err
			}
			return core.CheckInvariant(dk.IG)
		},
	})
}
