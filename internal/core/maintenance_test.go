package core

import (
	"math/rand"
	"testing"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/oracle"
)

// --- Promoting (Algorithm 6) ---

func TestPromoteRestoresSoundness(t *testing.T) {
	g := graph.FigureOneMovies()
	title := g.Labels().Lookup("title")
	dk := Build(g, nil) // label split: everything at k=0
	q := mustQuery(t, g, "director.movie.title")
	truth, _ := eval.Data(g, q)
	raw, _ := oracle.IndexNoValidation(dk.IG, q)
	if eval.SameResult(raw, truth) {
		t.Fatal("precondition: label split should over-answer director.movie.title")
	}
	dk.PromoteLabel(title, 2)
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	raw, _ = oracle.IndexNoValidation(dk.IG, q)
	if !eval.SameResult(raw, truth) {
		t.Errorf("after PromoteLabel(title,2): %v != %v", raw, truth)
	}
	if dk.LabelReqs[title] != 2 {
		t.Error("PromoteLabel did not record the new requirement")
	}
}

func TestPromoteIsIdempotent(t *testing.T) {
	g := graph.FigureOneMovies()
	title := g.Labels().Lookup("title")
	dk := Build(g, nil)
	dk.PromoteLabel(title, 2)
	size := dk.Size()
	stats := dk.PromoteLabel(title, 2)
	if dk.Size() != size {
		t.Error("second identical promotion changed the index")
	}
	if stats.IndexNodesCreated != 0 {
		t.Error("second identical promotion created nodes")
	}
}

func TestPromoteSoundnessProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+70, 250, 4, 60)
		rng := rand.New(rand.NewSource(seed * 3))
		dk := Build(g, nil)
		// Promote three random labels to random levels.
		for i := 0; i < 3; i++ {
			l := graph.LabelID(rng.Intn(g.Labels().Len()))
			dk.PromoteLabel(l, 1+rng.Intn(3))
		}
		if err := CheckInvariant(dk.IG); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := dk.IG.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for qi := 0; qi < 30; qi++ {
			q := randomWalkQuery(rng, g, 2+rng.Intn(4))
			truth, _ := eval.Data(g, q)
			res, cost := eval.Index(dk.IG, q)
			if !eval.SameResult(res, truth) {
				t.Fatalf("seed %d: validated result wrong after promote on %s", seed, q.Format(g.Labels()))
			}
			if cost.Validations == 0 {
				raw, _ := oracle.IndexNoValidation(dk.IG, q)
				if !eval.SameResult(raw, truth) {
					t.Fatalf("seed %d: promote claimed unsound similarity on %s", seed, q.Format(g.Labels()))
				}
			}
		}
	}
}

func TestPromoteAfterUpdatesRecoversPerformance(t *testing.T) {
	g := randomGraph(77, 400, 4, 100)
	rng := rand.New(rand.NewSource(42))
	reqs := make(Requirements)
	var queries []eval.Query
	for i := 0; i < 20; i++ {
		q := randomWalkQuery(rng, g, 2+rng.Intn(4))
		queries = append(queries, q)
		if reqs[q[len(q)-1]] < q.Length() {
			reqs[q[len(q)-1]] = q.Length()
		}
	}
	dk := Build(g, reqs)

	costOf := func() (total, validated int) {
		for _, q := range queries {
			_, c := eval.Index(dk.IG, q)
			total += c.Total()
			validated += c.DataNodesValidated
		}
		return total, validated
	}
	fresh, freshVal := costOf()
	if freshVal != 0 {
		t.Fatal("precondition: workload-tuned D(k) should not validate")
	}

	added := 0
	for added < 40 {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u == v || v == g.Root() || g.HasEdge(u, v) {
			continue
		}
		dk.AddEdge(u, v)
		added++
	}
	decayed, decayedVal := costOf()

	// Promote every label back to its requirement.
	for l, k := range reqs {
		dk.PromoteLabel(l, k)
	}
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	recovered, recoveredVal := costOf()
	t.Logf("cost: fresh=%d decayed=%d (validation %d) recovered=%d (validation %d)",
		fresh, decayed, decayedVal, recovered, recoveredVal)

	if decayedVal == 0 {
		t.Log("note: updates did not trigger validation on this seed")
	}
	// Promotion's guarantee is eliminating validation for the tuned
	// workload; total cost can trade validation for index size (the paper's
	// size-vs-accuracy tradeoff of Figures 6/7).
	if recoveredVal != 0 {
		t.Errorf("promotion left %d validation visits", recoveredVal)
	}
	// After promotion, workload queries need no validation again.
	for _, q := range queries {
		truth, _ := eval.Data(g, q)
		res, cost := eval.Index(dk.IG, q)
		if !eval.SameResult(res, truth) {
			t.Fatalf("wrong result after recovery on %s", q.Format(g.Labels()))
		}
		if cost.Validations != 0 {
			t.Errorf("query %s still validates after promotion", q.Format(g.Labels()))
		}
	}
}

func TestPromoteOnCyclicGraph(t *testing.T) {
	// Two parallel cycles with identical labels plus a distinguishing extra
	// parent: promotion must terminate and keep all claims sound.
	g := graph.New()
	r := g.AddRoot()
	a1 := g.AddNode("a")
	b1 := g.AddNode("b")
	a2 := g.AddNode("a")
	b2 := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(r, a1)
	g.AddEdge(a1, b1)
	g.AddEdge(b1, a1)
	g.AddEdge(r, c)
	g.AddEdge(c, a2)
	g.AddEdge(a2, b2)
	g.AddEdge(b2, a2)

	dk := Build(g, nil)
	for _, l := range []string{"a", "b"} {
		dk.PromoteLabel(g.Labels().Lookup(l), 3)
	}
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for qi := 0; qi < 40; qi++ {
		q := randomWalkQuery(rng, g, 2+rng.Intn(4))
		truth, _ := eval.Data(g, q)
		res, cost := eval.Index(dk.IG, q)
		if !eval.SameResult(res, truth) {
			t.Fatalf("cyclic promote: wrong result on %s", q.Format(g.Labels()))
		}
		if cost.Validations == 0 {
			raw, _ := oracle.IndexNoValidation(dk.IG, q)
			if !eval.SameResult(raw, truth) {
				t.Fatalf("cyclic promote: unsound claim on %s", q.Format(g.Labels()))
			}
		}
	}
}

func TestPromoteBatchOrdersByTarget(t *testing.T) {
	g := chainGraph() // ROOT -> a -> b -> c -> e
	dk := Build(g, nil)
	e := dk.IG.IndexOf(4)
	c := dk.IG.IndexOf(3)
	dk.PromoteBatch(map[graph.NodeID]int{c: 1, e: 3})
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	if got := dk.IG.K(dk.IG.IndexOf(4)); got < 3 {
		t.Errorf("k(e) = %d, want >= 3", got)
	}
	if got := dk.IG.K(dk.IG.IndexOf(3)); got < 2 {
		t.Errorf("k(c) = %d, want >= 2 (raised by e's promotion)", got)
	}
}

// --- Demoting (Section 5.4) ---

func TestDemoteMatchesFreshBuild(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+90, 300, 4, 80)
		hi := make(Requirements)
		lo := make(Requirements)
		rng := rand.New(rand.NewSource(seed))
		for l := 0; l < g.Labels().Len(); l++ {
			h := rng.Intn(4)
			hi[graph.LabelID(l)] = h
			if h > 0 {
				lo[graph.LabelID(l)] = rng.Intn(h)
			}
		}
		dk := Build(g, hi)
		sizeHi := dk.Size()
		dk.Demote(lo)
		fresh := Build(g, lo)
		if !sameIndexGrouping(dk.IG, fresh.IG) {
			t.Fatalf("seed %d: demoted index != fresh D(k) (%d vs %d nodes)",
				seed, dk.Size(), fresh.Size())
		}
		if dk.Size() > sizeHi {
			t.Fatalf("seed %d: demotion grew the index", seed)
		}
		if err := CheckInvariant(dk.IG); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Demoted similarities must equal the fresh build's.
		for d := 0; d < g.NumNodes(); d++ {
			a := dk.IG.K(dk.IG.IndexOf(graph.NodeID(d)))
			b := fresh.IG.K(fresh.IG.IndexOf(graph.NodeID(d)))
			if a != b {
				t.Fatalf("seed %d: similarity mismatch at data node %d: %d vs %d", seed, d, a, b)
			}
		}
	}
}

func TestDemoteAfterUpdatesStaysSound(t *testing.T) {
	g := randomGraph(123, 300, 4, 80)
	rng := rand.New(rand.NewSource(9))
	reqs := make(Requirements)
	for l := 0; l < g.Labels().Len(); l++ {
		reqs[graph.LabelID(l)] = 3
	}
	dk := Build(g, reqs)
	added := 0
	for added < 20 {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u == v || v == g.Root() || g.HasEdge(u, v) {
			continue
		}
		dk.AddEdge(u, v)
		added++
	}
	lo := make(Requirements)
	for l := range reqs {
		lo[l] = 1
	}
	dk.Demote(lo)
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 40; qi++ {
		q := randomWalkQuery(rng, g, 2+rng.Intn(4))
		truth, _ := eval.Data(g, q)
		res, cost := eval.Index(dk.IG, q)
		if !eval.SameResult(res, truth) {
			t.Fatalf("demote after updates: wrong result on %s", q.Format(g.Labels()))
		}
		if cost.Validations == 0 {
			raw, _ := oracle.IndexNoValidation(dk.IG, q)
			if !eval.SameResult(raw, truth) {
				t.Fatalf("demote after updates: unsound claim on %s", q.Format(g.Labels()))
			}
		}
	}
}

// --- Subgraph addition (Algorithm 3) ---

// buildMiniDoc builds a small document graph with its own label table.
func buildMiniDoc(seed int64, nodes int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	h := graph.New()
	r := h.AddRoot()
	ids := []graph.NodeID{r}
	for i := 1; i < nodes; i++ {
		n := h.AddNode(string(rune('a' + rng.Intn(4))))
		h.AddEdge(ids[rng.Intn(len(ids))], n)
		ids = append(ids, n)
	}
	return h
}

func TestAddSubgraphMatchesFreshBuild(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+200, 250, 4, 60)
		h := buildMiniDoc(seed, 60)
		reqs := make(Requirements)
		rng := rand.New(rand.NewSource(seed))
		for l := 0; l < g.Labels().Len(); l++ {
			reqs[graph.LabelID(l)] = rng.Intn(3)
		}

		// From scratch: graft the same subgraph onto a clone and rebuild.
		// (Cloned before AddSubgraph mutates g.)
		g2 := cloneAndGraft(g, h)
		fresh := Build(g2, reqs)

		// Incremental: Algorithm 3.
		dk := Build(g, reqs)
		mappings, err := dk.AddSubgraph(h)
		if err != nil {
			t.Fatal(err)
		}
		mapping := mappings[0]
		if err := dk.IG.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckInvariant(dk.IG); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		if !sameIndexGrouping(dk.IG, fresh.IG) {
			t.Fatalf("seed %d: subgraph addition (%d nodes) != fresh build (%d nodes)",
				seed, dk.Size(), fresh.Size())
		}
		// Mapping sanity: labels preserved, root maps to root.
		if mapping[h.Root()] != dk.IG.Data().Root() {
			t.Error("subgraph root not identified with data root")
		}
		for n := 0; n < h.NumNodes(); n++ {
			if graph.NodeID(n) == h.Root() {
				continue
			}
			if dk.IG.Data().LabelName(mapping[n]) != h.LabelName(graph.NodeID(n)) {
				t.Fatalf("seed %d: label mismatch for grafted node %d", seed, n)
			}
		}
	}
}

// cloneAndGraft reproduces AddSubgraph's graft on a fresh copy, in the same
// node order, so node ids align with the incremental path.
func cloneAndGraft(g, h *graph.Graph) *graph.Graph {
	g2 := g.Clone()
	mapping := make([]graph.NodeID, h.NumNodes())
	for n := 0; n < h.NumNodes(); n++ {
		if graph.NodeID(n) == h.Root() {
			mapping[n] = g2.Root()
			continue
		}
		mapping[n] = g2.AddNodeID(g2.Labels().Intern(h.LabelName(graph.NodeID(n))))
	}
	for n := 0; n < h.NumNodes(); n++ {
		for _, c := range h.Children(graph.NodeID(n)) {
			g2.AddEdge(mapping[n], mapping[c])
		}
	}
	return g2
}

func TestAddSubgraphWithNewLabels(t *testing.T) {
	g := graph.FigureOneMovies()
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"title": 2}))
	h := graph.New()
	hr := h.AddRoot()
	s := h.AddNode("series")  // label unknown to g
	e := h.AddNode("episode") // label unknown to g
	ti := h.AddNode("title")  // existing label
	h.AddEdge(hr, s)
	h.AddEdge(s, e)
	h.AddEdge(e, ti)
	if _, err := dk.AddSubgraph(h); err != nil {
		t.Fatal(err)
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, g, "series.episode.title")
	truth, _ := eval.Data(dk.IG.Data(), q)
	if len(truth) != 1 {
		t.Fatalf("grafted path not found: %v", truth)
	}
	res, _ := eval.Index(dk.IG, q)
	if !eval.SameResult(res, truth) {
		t.Errorf("index result %v != truth %v", res, truth)
	}
}

func TestAddSubgraphErrors(t *testing.T) {
	g := graph.New() // no root
	g.AddNode("x")
	dk := &DK{IG: index.BuildLabelSplit(g)}
	if _, err := dk.AddSubgraph(graph.FigureOneMovies()); err == nil {
		t.Error("expected error for rootless data graph")
	}
	g2 := graph.FigureOneMovies()
	dk2 := Build(g2, nil)
	h := graph.New() // rootless subgraph
	h.AddNode("y")
	if _, err := dk2.AddSubgraph(h); err == nil {
		t.Error("expected error for rootless subgraph")
	}
}

func TestAddSubgraphSoundAfterPriorUpdates(t *testing.T) {
	g := randomGraph(321, 250, 4, 60)
	rng := rand.New(rand.NewSource(17))
	reqs := make(Requirements)
	for l := 0; l < g.Labels().Len(); l++ {
		reqs[graph.LabelID(l)] = 2
	}
	dk := Build(g, reqs)
	added := 0
	for added < 15 {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u == v || v == g.Root() || g.HasEdge(u, v) {
			continue
		}
		dk.AddEdge(u, v)
		added++
	}
	if _, err := dk.AddSubgraph(buildMiniDoc(5, 50)); err != nil {
		t.Fatal(err)
	}
	if err := dk.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 40; qi++ {
		q := randomWalkQuery(rng, dk.IG.Data(), 2+rng.Intn(4))
		truth, _ := eval.Data(dk.IG.Data(), q)
		res, cost := eval.Index(dk.IG, q)
		if !eval.SameResult(res, truth) {
			t.Fatalf("subgraph after updates: wrong result on %s", q.Format(g.Labels()))
		}
		if cost.Validations == 0 {
			raw, _ := oracle.IndexNoValidation(dk.IG, q)
			if !eval.SameResult(raw, truth) {
				t.Fatalf("subgraph after updates: unsound claim on %s", q.Format(g.Labels()))
			}
		}
	}
}

// --- lowering ---

func TestLowerToInvariant(t *testing.T) {
	g := chainGraph()
	dk := Build(g, ReqsFromNames(g.Labels(), map[string]int{"e": 3}))
	// Manually break the invariant: zero out c's similarity.
	cNode := dk.IG.IndexOf(3)
	dk.IG.SetK(cNode, 0)
	if err := CheckInvariant(dk.IG); err == nil {
		t.Fatal("precondition: invariant should be broken")
	}
	new(lowerScratch).run(dk.IG)
	if err := CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	if got := dk.IG.K(dk.IG.IndexOf(4)); got != 1 {
		t.Errorf("k(e) after lowering = %d, want 1", got)
	}
}
