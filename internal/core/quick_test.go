package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/oracle"
	"dkindex/internal/partition"
)

type genSpec struct {
	Seed   int64
	Nodes  uint8
	Labels uint8
	Extra  uint8
}

func (s genSpec) build() *graph.Graph {
	nodes := int(s.Nodes%100) + 2
	labels := int(s.Labels%4) + 1
	extra := int(s.Extra % 40)
	return randomGraph(s.Seed, nodes, labels, extra)
}

func randomReqs(g *graph.Graph, seed int64) Requirements {
	rng := rand.New(rand.NewSource(seed))
	reqs := make(Requirements)
	for l := 0; l < g.Labels().Len(); l++ {
		if k := rng.Intn(4); k > 0 {
			reqs[graph.LabelID(l)] = k
		}
	}
	return reqs
}

// checkIndexExact verifies, for a sample of data-derived queries, that
// validated evaluation equals ground truth and that any validation-free
// answer is already exact (the soundness of claimed similarities).
func checkIndexExact(dk *DK, seed int64) bool {
	g := dk.IG.Data()
	rng := rand.New(rand.NewSource(seed))
	for qi := 0; qi < 12; qi++ {
		q := randomWalkQuery(rng, g, 2+rng.Intn(4))
		truth, _ := eval.Data(g, q)
		res, cost := eval.Index(dk.IG, q)
		if !eval.SameResult(res, truth) {
			return false
		}
		if cost.Validations == 0 {
			raw, _ := oracle.IndexNoValidation(dk.IG, q)
			if !eval.SameResult(raw, truth) {
				return false
			}
		}
	}
	return true
}

// Property: construction with arbitrary requirements yields a valid index
// satisfying Definition 3, exact under validation, and sound within claimed
// budgets.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(s genSpec, reqSeed int64) bool {
		g := s.build()
		dk := Build(g, randomReqs(g, reqSeed))
		if dk.IG.Validate() != nil || CheckInvariant(dk.IG) != nil {
			return false
		}
		return checkIndexExact(dk, reqSeed+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary interleavings of edge additions, promotions and
// demotions preserve every invariant and exactness.
func TestQuickMixedOperationSequence(t *testing.T) {
	f := func(s genSpec, reqSeed, opSeed int64, ops uint8) bool {
		g := s.build()
		dk := Build(g, randomReqs(g, reqSeed))
		rng := rand.New(rand.NewSource(opSeed))
		for i := 0; i < int(ops%20)+3; i++ {
			switch rng.Intn(5) {
			case 0, 1: // edge addition (most common in practice)
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				if u != v && v != g.Root() {
					dk.AddEdge(u, v)
				}
			case 4: // edge removal
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				if ch := g.Children(u); len(ch) > 0 {
					if v := ch[rng.Intn(len(ch))]; v != g.Root() {
						dk.RemoveEdge(u, v)
					}
				}
			case 2: // promote a random label
				l := graph.LabelID(rng.Intn(g.Labels().Len()))
				dk.PromoteLabel(l, 1+rng.Intn(3))
			case 3: // demote everything one notch
				lo := make(Requirements)
				for l, k := range dk.LabelReqs {
					if k > 1 {
						lo[l] = k - 1
					}
				}
				dk.Demote(lo)
			}
			if dk.IG.Validate() != nil || CheckInvariant(dk.IG) != nil {
				return false
			}
		}
		return checkIndexExact(dk, opSeed+7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: subgraph addition (Algorithm 3) preserves all invariants and
// exactness for arbitrary document shapes.
func TestQuickSubgraphAddition(t *testing.T) {
	f := func(s genSpec, hs genSpec, reqSeed int64) bool {
		g := s.build()
		h := hs.build()
		dk := Build(g, randomReqs(g, reqSeed))
		if _, err := dk.AddSubgraph(h); err != nil {
			return false
		}
		if dk.IG.Validate() != nil || CheckInvariant(dk.IG) != nil {
			return false
		}
		return checkIndexExact(dk, reqSeed+3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the broadcast algorithm is idempotent and never lowers a
// requirement.
func TestQuickBroadcastIdempotentMonotone(t *testing.T) {
	f := func(s genSpec, reqSeed int64) bool {
		g := s.build()
		p := newLabelSplitForTest(g)
		reqs := make([]int, p.NumNodes())
		rng := rand.New(rand.NewSource(reqSeed))
		for i := range reqs {
			reqs[i] = rng.Intn(5)
		}
		once := broadcast(p, reqs)
		for i := range reqs {
			if once[i] < reqs[i] {
				return false
			}
		}
		twice := broadcast(p, once)
		for i := range once {
			if twice[i] != once[i] {
				return false
			}
		}
		// Definition 3 on the label graph.
		for n := 0; n < p.NumNodes(); n++ {
			for _, par := range p.Parents(graph.NodeID(n)) {
				if once[par] < once[n]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// newLabelSplitForTest builds the label-level quotient graph used by the
// broadcast property test.
func newLabelSplitForTest(g *graph.Graph) *quotientGraph {
	q := new(quotientGraph)
	q.reset(index.DataSource{G: g}, partition.NewByLabel(g))
	return q
}
