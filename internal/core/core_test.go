package core

import (
	"math/rand"
	"testing"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/oracle"
)

func randomGraph(seed int64, nodes, labels, extraEdges int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	r := g.AddRoot()
	ids := []graph.NodeID{r}
	for i := 1; i < nodes; i++ {
		n := g.AddNode(string(rune('a' + rng.Intn(labels))))
		g.AddEdge(ids[rng.Intn(len(ids))], n)
		ids = append(ids, n)
	}
	for i := 0; i < extraEdges; i++ {
		from := ids[rng.Intn(len(ids))]
		to := ids[rng.Intn(len(ids))]
		if from != to && to != r {
			g.AddEdge(from, to)
		}
	}
	return g
}

func randomWalkQuery(rng *rand.Rand, g *graph.Graph, maxLen int) eval.Query {
	n := graph.NodeID(rng.Intn(g.NumNodes()))
	q := eval.Query{g.Label(n)}
	for len(q) < maxLen {
		ch := g.Children(n)
		if len(ch) == 0 {
			break
		}
		n = ch[rng.Intn(len(ch))]
		q = append(q, g.Label(n))
	}
	return q
}

func mustQuery(t *testing.T, g *graph.Graph, s string) eval.Query {
	t.Helper()
	q, err := eval.ParseQuery(g.Labels(), s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sameIndexGrouping reports whether two index graphs partition the data
// nodes identically (ignoring node numbering).
func sameIndexGrouping(a, b *index.IndexGraph) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	n := a.Data().NumNodes()
	if n != b.Data().NumNodes() {
		return false
	}
	fwd := make(map[graph.NodeID]graph.NodeID)
	bwd := make(map[graph.NodeID]graph.NodeID)
	for d := 0; d < n; d++ {
		ba, bb := a.IndexOf(graph.NodeID(d)), b.IndexOf(graph.NodeID(d))
		if m, ok := fwd[ba]; ok && m != bb {
			return false
		}
		if m, ok := bwd[bb]; ok && m != ba {
			return false
		}
		fwd[ba] = bb
		bwd[bb] = ba
	}
	return true
}

// --- Requirements and broadcast (Algorithm 1) ---

func TestReqsFromNames(t *testing.T) {
	tab := graph.NewLabelTable()
	r := ReqsFromNames(tab, map[string]int{"title": 2, "name": 1})
	if r.Get(tab.Lookup("title")) != 2 || r.Get(tab.Lookup("name")) != 1 {
		t.Error("requirements not recorded")
	}
	if r.Get(tab.Intern("other")) != 0 {
		t.Error("absent label should default to 0")
	}
}

func TestRequirementsCloneAndFormat(t *testing.T) {
	tab := graph.NewLabelTable()
	r := ReqsFromNames(tab, map[string]int{"b": 2, "a": 1})
	c := r.Clone()
	c[tab.Lookup("a")] = 9
	if r.Get(tab.Lookup("a")) == 9 {
		t.Error("clone shares storage")
	}
}

// chainGraph builds ROOT -> a -> b -> c -> e for broadcast tests.
func chainGraph() *graph.Graph {
	g := graph.New()
	r := g.AddRoot()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	e := g.AddNode("e")
	g.AddEdge(r, a)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, e)
	return g
}

func TestBroadcastRaisesAncestors(t *testing.T) {
	g := chainGraph()
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"e": 3}))
	ig := dk.IG
	// k(parent) >= k(child)-1 along ROOT->a->b->c->e with req(e)=3:
	// c >= 2, b >= 1, a >= 0.
	want := map[string]int{"e": 3, "c": 2, "b": 1, "a": 0, graph.RootLabel: 0}
	for n := 0; n < ig.NumNodes(); n++ {
		name := g.Labels().Name(ig.Label(graph.NodeID(n)))
		if ig.K(graph.NodeID(n)) != want[name] {
			t.Errorf("label %s: k = %d, want %d", name, ig.K(graph.NodeID(n)), want[name])
		}
	}
	if err := CheckInvariant(ig); err != nil {
		t.Error(err)
	}
}

func TestBroadcastDoesNotLower(t *testing.T) {
	g := chainGraph()
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"e": 1, "a": 3}))
	ig := dk.IG
	for n := 0; n < ig.NumNodes(); n++ {
		name := g.Labels().Name(ig.Label(graph.NodeID(n)))
		if name == "a" && ig.K(graph.NodeID(n)) != 3 {
			t.Errorf("a's own requirement lowered to %d", ig.K(graph.NodeID(n)))
		}
	}
}

func TestBroadcastOnSelfLoop(t *testing.T) {
	g := graph.TinyCycle() // ROOT -> a -> b -> a
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"a": 3}))
	if err := CheckInvariant(dk.IG); err != nil {
		t.Error(err)
	}
	// b is a parent of a, so k(b) >= 2; a is a parent of b, so k(a) >= 1 —
	// already 3. ROOT is a parent of a: k(ROOT) >= 2.
	for n := 0; n < dk.IG.NumNodes(); n++ {
		name := g.Labels().Name(dk.IG.Label(graph.NodeID(n)))
		k := dk.IG.K(graph.NodeID(n))
		switch name {
		case "a":
			if k != 3 {
				t.Errorf("a: k=%d, want 3", k)
			}
		case "b", graph.RootLabel:
			if k != 2 {
				t.Errorf("%s: k=%d, want 2", name, k)
			}
		}
	}
}

// --- Construction (Algorithm 2) ---

func TestDKWithZeroReqsIsLabelSplit(t *testing.T) {
	g := randomGraph(1, 300, 4, 80)
	dk := Build(g, nil)
	ls := index.BuildLabelSplit(g)
	if !sameIndexGrouping(dk.IG, ls) {
		t.Error("D(k) with no requirements != label-split graph")
	}
}

func TestDKWithUniformReqsIsAK(t *testing.T) {
	g := randomGraph(2, 300, 4, 80)
	for _, k := range []int{1, 2, 3} {
		reqs := make(Requirements)
		for l := 0; l < g.Labels().Len(); l++ {
			reqs[graph.LabelID(l)] = k
		}
		dk := Build(g, reqs)
		ak := index.BuildAK(g, k)
		if !sameIndexGrouping(dk.IG, ak) {
			t.Errorf("D(k) with uniform req %d != A(%d)", k, k)
		}
		if err := CheckInvariant(dk.IG); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestDKSizeBetweenLabelSplitAndAK(t *testing.T) {
	g := randomGraph(4, 500, 5, 150)
	reqs := Requirements{g.Labels().Lookup("a"): 3}
	dk := Build(g, reqs)
	ls := index.BuildLabelSplit(g)
	ak := index.BuildAK(g, 3)
	if dk.Size() < ls.NumNodes() || dk.Size() > ak.NumNodes() {
		t.Errorf("D(k) size %d outside [label-split %d, A(3) %d]",
			dk.Size(), ls.NumNodes(), ak.NumNodes())
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConstructionFigure2Style(t *testing.T) {
	// Figure 2's scenario: one label (E) requires similarity 2, all other
	// labels require 1. The broadcast must give E's parents at least 1 and
	// its grandparents at least 0, and the resulting index must answer
	// length-2 queries ending at e without validation.
	g := graph.New()
	r := g.AddRoot()
	a1 := g.AddNode("a")
	a2 := g.AddNode("a")
	b1 := g.AddNode("b")
	b2 := g.AddNode("b")
	c1 := g.AddNode("c")
	e1 := g.AddNode("e")
	e2 := g.AddNode("e")
	g.AddEdge(r, a1)
	g.AddEdge(r, a2)
	g.AddEdge(a1, b1)
	g.AddEdge(a2, b2)
	g.AddEdge(a2, c1)
	g.AddEdge(b1, e1)
	g.AddEdge(c1, e2)

	reqs := ReqsFromNames(g.Labels(), map[string]int{"e": 2, "a": 1, "b": 1, "c": 1})
	dk := Build(g, reqs)
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	// e1 (under b) and e2 (under c) must be separated (2-bisimilarity).
	if dk.IG.IndexOf(e1) == dk.IG.IndexOf(e2) {
		t.Error("e nodes with different grandparent structure not separated at req 2")
	}
	// Queries of length 2 ending at e are sound without validation.
	for _, qs := range []string{"a.b.e", "a.c.e"} {
		q := mustQuery(t, g, qs)
		truth, _ := eval.Data(g, q)
		raw, _ := oracle.IndexNoValidation(dk.IG, q)
		if !eval.SameResult(raw, truth) {
			t.Errorf("query %s unsound without validation: %v != %v", qs, raw, truth)
		}
	}
}

func TestDKSoundForWorkloadQueries(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+10, 300, 4, 90)
		rng := rand.New(rand.NewSource(seed))
		var queries []eval.Query
		reqs := make(Requirements)
		for i := 0; i < 20; i++ {
			q := randomWalkQuery(rng, g, 2+rng.Intn(4))
			queries = append(queries, q)
			last := q[len(q)-1]
			if reqs[last] < q.Length() {
				reqs[last] = q.Length()
			}
		}
		dk := Build(g, reqs)
		if err := CheckInvariant(dk.IG); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			truth, _ := eval.Data(g, q)
			res, cost := eval.Index(dk.IG, q)
			if !eval.SameResult(res, truth) {
				t.Fatalf("seed %d: D(k) wrong on %s", seed, q.Format(g.Labels()))
			}
			if cost.Validations != 0 {
				t.Fatalf("seed %d: D(k) validated workload query %s", seed, q.Format(g.Labels()))
			}
		}
	}
}

// --- Edge addition (Algorithms 4 and 5) ---

func TestUpdateLocalSimilarityFigure3Style(t *testing.T) {
	// Figure 3's scenario: D already has a parent labeled c; a new edge from
	// another c-class node into D does not change D's label parents, so D's
	// similarity stays at least 1 instead of dropping to 0.
	g := graph.New()
	r := g.AddRoot()
	c1 := g.AddNode("c")
	c2 := g.AddNode("c")
	c3 := g.AddNode("c")
	d1 := g.AddNode("d")
	d2 := g.AddNode("d")
	e1 := g.AddNode("e")
	e2 := g.AddNode("e")
	g.AddEdge(r, c1)
	g.AddEdge(r, c2)
	g.AddEdge(r, c3)
	g.AddEdge(c1, d1)
	g.AddEdge(c2, d2)
	g.AddEdge(d1, e1)
	g.AddEdge(d2, e2)

	reqs := ReqsFromNames(g.Labels(), map[string]int{"e": 3, "d": 2})
	dk := Build(g, reqs)
	dNode := dk.IG.IndexOf(d2)
	if dk.IG.K(dNode) < 2 {
		t.Fatalf("precondition: k(D)=%d, want >= 2", dk.IG.K(dNode))
	}
	sizeBefore := dk.Size()
	dk.AddEdge(c3, d2)
	if dk.Size() != sizeBefore {
		t.Errorf("D(k) edge update changed index size %d -> %d", sizeBefore, dk.Size())
	}
	// The new parent has label c, which D already had: similarity should
	// stay at least 1 (paper: "we therefore reset D's local similarity to 1").
	if got := dk.IG.K(dk.IG.IndexOf(d2)); got < 1 {
		t.Errorf("k(D) after c->D edge = %d, want >= 1", got)
	}
	if err := CheckInvariant(dk.IG); err != nil {
		t.Error(err)
	}
}

func TestUpdateLocalSimilarityWorstCase(t *testing.T) {
	// A parent with a label V has never seen forces k_N = 0.
	g := graph.New()
	r := g.AddRoot()
	x := g.AddNode("x")
	y1 := g.AddNode("y")
	y2 := g.AddNode("y")
	z := g.AddNode("z")
	g.AddEdge(r, x)
	g.AddEdge(r, y1)
	g.AddEdge(r, y2)
	g.AddEdge(y1, z)

	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"z": 2}))
	zNode := dk.IG.IndexOf(z)
	if dk.IG.K(zNode) != 2 {
		t.Fatalf("precondition: k(z)=%d", dk.IG.K(zNode))
	}
	var s UpdateScratch
	kn := s.LocalSimilarity(dk.IG, dk.IG.IndexOf(x), zNode)
	if kn != 0 {
		t.Errorf("new x->z edge should force k_N=0, got %d", kn)
	}
	// A second y parent keeps similarity 1 at least: label path "y" into z
	// already existed.
	kn = s.LocalSimilarity(dk.IG, dk.IG.IndexOf(y2), zNode)
	if kn < 1 {
		t.Errorf("new y->z edge should keep k_N >= 1, got %d", kn)
	}
}

func TestAddEdgeDuplicateIsNoOp(t *testing.T) {
	g := graph.FigureOneMovies()
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"title": 2}))
	before := dk.IG.K(dk.IG.IndexOf(7))
	dk.AddEdge(2, 7) // existing data edge director->movie
	if dk.IG.K(dk.IG.IndexOf(7)) != before {
		t.Error("duplicate edge changed similarities")
	}
}

func TestAddEdgeCorrectnessProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+30, 250, 4, 60)
		rng := rand.New(rand.NewSource(seed * 7))
		reqs := make(Requirements)
		var queries []eval.Query
		for i := 0; i < 15; i++ {
			q := randomWalkQuery(rng, g, 2+rng.Intn(4))
			queries = append(queries, q)
			if reqs[q[len(q)-1]] < q.Length() {
				reqs[q[len(q)-1]] = q.Length()
			}
		}
		dk := Build(g, reqs)
		sizeBefore := dk.Size()
		added := 0
		for added < 30 {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if u == v || v == g.Root() || g.HasEdge(u, v) {
				continue
			}
			dk.AddEdge(u, v)
			added++
		}
		if dk.Size() != sizeBefore {
			t.Fatalf("seed %d: D(k) size changed by edge updates", seed)
		}
		if err := CheckInvariant(dk.IG); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := dk.IG.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Both the original workload queries and fresh random walks must
		// evaluate correctly with validation.
		for i := 0; i < 15; i++ {
			queries = append(queries, randomWalkQuery(rng, g, 2+rng.Intn(4)))
		}
		for _, q := range queries {
			truth, _ := eval.Data(g, q)
			res, _ := eval.Index(dk.IG, q)
			if !eval.SameResult(res, truth) {
				t.Fatalf("seed %d: D(k) after updates wrong on %s", seed, q.Format(g.Labels()))
			}
		}
	}
}

// The decisive soundness property for Algorithm 4: whenever evaluation skips
// validation (matched node similarity covers the query), the unvalidated
// result must equal the truth — even after many edge updates.
func TestAddEdgeSoundnessOfClaimedSimilarities(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+50, 250, 4, 60)
		rng := rand.New(rand.NewSource(seed * 13))
		reqs := make(Requirements)
		for l := 0; l < g.Labels().Len(); l++ {
			reqs[graph.LabelID(l)] = 2
		}
		dk := Build(g, reqs)
		added := 0
		for added < 25 {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if u == v || v == g.Root() || g.HasEdge(u, v) {
				continue
			}
			dk.AddEdge(u, v)
			added++
		}
		for qi := 0; qi < 40; qi++ {
			q := randomWalkQuery(rng, g, 2+rng.Intn(4))
			truth, _ := eval.Data(g, q)
			res, cost := eval.Index(dk.IG, q)
			if !eval.SameResult(res, truth) {
				t.Fatalf("seed %d: validated result wrong on %s", seed, q.Format(g.Labels()))
			}
			if cost.Validations == 0 {
				// Every matched node claimed soundness; verify the claim.
				raw, _ := oracle.IndexNoValidation(dk.IG, q)
				if !eval.SameResult(raw, truth) {
					t.Fatalf("seed %d: claimed similarity unsound on %s", seed, q.Format(g.Labels()))
				}
			}
		}
	}
}

func TestRemoveEdgeCorrectnessProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed+700, 250, 4, 80)
		rng := rand.New(rand.NewSource(seed * 11))
		reqs := make(Requirements)
		for l := 0; l < g.Labels().Len(); l++ {
			reqs[graph.LabelID(l)] = 2
		}
		dk := Build(g, reqs)
		sizeBefore := dk.Size()
		// Interleave removals with additions.
		removed := 0
		for removed < 25 {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			ch := g.Children(u)
			if len(ch) == 0 {
				continue
			}
			v := ch[rng.Intn(len(ch))]
			if v == g.Root() {
				continue
			}
			dk.RemoveEdge(u, v)
			removed++
			if rng.Intn(2) == 0 {
				a := graph.NodeID(rng.Intn(g.NumNodes()))
				b := graph.NodeID(rng.Intn(g.NumNodes()))
				if a != b && b != g.Root() {
					dk.AddEdge(a, b)
				}
			}
		}
		if dk.Size() != sizeBefore {
			t.Fatalf("seed %d: removal changed index size", seed)
		}
		if err := dk.IG.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckInvariant(dk.IG); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for qi := 0; qi < 30; qi++ {
			q := randomWalkQuery(rng, g, 2+rng.Intn(4))
			truth, _ := eval.Data(g, q)
			res, cost := eval.Index(dk.IG, q)
			if !eval.SameResult(res, truth) {
				t.Fatalf("seed %d: wrong after removals on %s", seed, q.Format(g.Labels()))
			}
			if cost.Validations == 0 {
				raw, _ := oracle.IndexNoValidation(dk.IG, q)
				if !eval.SameResult(raw, truth) {
					t.Fatalf("seed %d: unsound claim after removals on %s", seed, q.Format(g.Labels()))
				}
			}
		}
	}
}

func TestRemoveEdgeMissingIsNoOp(t *testing.T) {
	g := graph.FigureOneMovies()
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"title": 2}))
	before := dk.IG.K(dk.IG.IndexOf(15))
	dk.RemoveEdge(15, 2) // no such edge
	if dk.IG.K(dk.IG.IndexOf(15)) != before {
		t.Error("no-op removal changed similarities")
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdgeOneLevelProbe(t *testing.T) {
	// Two c-parents with the same label: deleting one keeps similarity 1.
	g := graph.New()
	r := g.AddRoot()
	c1 := g.AddNode("c")
	c2 := g.AddNode("c")
	d := g.AddNode("d")
	e := g.AddNode("e")
	g.AddEdge(r, c1)
	g.AddEdge(r, c2)
	g.AddEdge(c1, d)
	g.AddEdge(c2, d)
	g.AddEdge(d, e)
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"e": 3}))
	dNode := dk.IG.IndexOf(d)
	if dk.IG.K(dNode) < 2 {
		t.Fatalf("precondition: k(d)=%d", dk.IG.K(dNode))
	}
	dk.RemoveEdge(c1, d)
	if got := dk.IG.K(dk.IG.IndexOf(d)); got != 1 {
		t.Errorf("k(d) after removing one of two c-parents = %d, want 1", got)
	}
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
}
