package dkindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
)

// Property: the label posting lists and adjacency mirrors survive the whole
// public mutation surface — edge insertion/removal, document grafting,
// promotion, demotion, and compaction — in any interleaving. After every
// sequence the graph and index re-validate (posting lists are re-derived and
// compared inside Validate) and queries still equal direct evaluation, i.e.
// posting-list seeding sees exactly the live nodes.
func TestQuickPostingListsSurviveLifecycle(t *testing.T) {
	f := func(opSeed int64, ops uint8) bool {
		idx, err := LoadXMLString(moviesXML, nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(opSeed))
		for i := 0; i < int(ops%12)+3; i++ {
			g := idx.Graph()
			switch rng.Intn(6) {
			case 0:
				u := NodeID(rng.Intn(g.NumNodes()))
				v := NodeID(rng.Intn(g.NumNodes()))
				if u != v && v != g.Root() && !g.HasEdge(u, v) {
					if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: u, To: v}); err != nil {
						return false
					}
				}
			case 1:
				u := NodeID(rng.Intn(g.NumNodes()))
				for _, v := range g.Children(u) {
					if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: u, To: v}); err != nil {
						return false
					}
					break
				}
			case 2:
				doc := `<movieDB><director><movie><title/></movie></director></movieDB>`
				if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte(doc)}); err != nil {
					return false
				}
			case 3:
				if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 1 + rng.Intn(3)}); err != nil {
					return false
				}
			case 4:
				if _, err := idx.Apply(Mutation{Op: MutDemote, Reqs: map[string]int{"title": rng.Intn(2)}}); err != nil {
					return false
				}
			case 5:
				if _, err := idx.Apply(Mutation{Op: MutCompact}); err != nil {
					return false
				}
			}
		}
		if err := idx.Graph().Validate(); err != nil {
			return false
		}
		if err := idx.IG().Validate(); err != nil {
			return false
		}
		for _, qs := range []string{"director.movie.title", "movie.title", "actor.name"} {
			res, _, err := query(idx, KindPath, qs)
			if err != nil {
				return false
			}
			q, err := eval.ParseQuery(idx.Graph().Labels(), qs)
			if err != nil {
				return false
			}
			truth, _ := eval.Data(idx.Graph(), q)
			if !eval.SameResult(res, truth) {
				return false
			}
			// Seeding parity: the posting list for the query's first label
			// must equal a brute-force scan of the live graph.
			l := q[0]
			var want []graph.NodeID
			for n := 0; n < idx.Graph().NumNodes(); n++ {
				if idx.Graph().Label(graph.NodeID(n)) == l {
					want = append(want, graph.NodeID(n))
				}
			}
			got := idx.Graph().NodesWithLabel(l)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
