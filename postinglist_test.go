package dkindex

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/rpe"
)

// Property: the label lists of both graphs and the adjacency mirrors survive
// the whole public mutation surface — edge insertion/removal, document
// grafting, promotion, demotion, and compaction — in any interleaving. After
// every sequence the graph and index re-validate (label lists are re-derived
// and compared inside Validate), both graphs' lists equal a brute-force label
// scan, and path, RPE and twig queries, all seeded from the index's lists,
// still equal direct evaluation on the data graph.
func TestQuickPostingListsSurviveLifecycle(t *testing.T) {
	rpes := []string{"movieDB//title", "director.movie.title|actor.name", "movie//name"}
	twigs := []string{"movie[year].title", "director[name].movie.title", "movie[actor.name].title"}
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
			list := idx.Graph().NodesWithLabel(l)
			if !slices.Equal(list.AppendTo(nil), want) {
				return false
			}
		}
		ig := idx.IG()
		for l := range ig.NumLabels() {
			var want []graph.NodeID
			for n := range ig.NumNodes() {
				if ig.Label(graph.NodeID(n)) == graph.LabelID(l) {
					want = append(want, graph.NodeID(n))
				}
			}
			if list := ig.NodesWithLabel(graph.LabelID(l)); !slices.Equal(list.AppendTo(nil), want) {
				return false
			}
		}
		g, labels := idx.Graph(), idx.Graph().Labels()
		text := rpes[rng.Intn(len(rpes))]
		res, _, err := query(idx, KindRPE, text)
		if err != nil {
			return false
		}
		if truth, _ := eval.DataRPE(g, rpe.CompileExpr(rpe.MustParse(text), labels)); !eval.SameResult(res, truth) {
			return false
		}
		text = twigs[rng.Intn(len(twigs))]
		res, _, err = query(idx, KindTwig, text)
		if err != nil {
			return false
		}
		tw, err := eval.ParseTwig(labels, text)
		if err != nil {
			return false
		}
		truth, _ := eval.DataTwig(g, tw)
		return eval.SameResult(res, truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
