package core_test

import (
	"math/rand"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
)

// alg4Probes compares Algorithm 4 on one writer scratch with the map-based
// reference on the same index, tallying how deep the probes went.
type alg4Probes struct {
	t       *testing.T
	s       core.UpdateScratch
	deepest int
	capped  int
}

func (p *alg4Probes) probe(dk *core.DK, a, b graph.NodeID) {
	p.t.Helper()
	want, levels, capped := core.ReferenceLocalSimilarity(dk.IG, a, b)
	if got := p.s.LocalSimilarity(dk.IG, a, b); got != want {
		p.t.Fatalf("index edge %d->%d: k_N %d, reference %d", a, b, got, want)
	}
	p.deepest = max(p.deepest, levels)
	if capped {
		p.capped++
	}
}

// probeIndexEdges probes every existing index edge: an edge from an index
// parent of V adds no label path V lacks, so its probe runs until the
// upbound, U's exhausted ancestry or maxTrackedPaths.
func (p *alg4Probes) probeIndexEdges(dk *core.DK) {
	for a := 0; a < dk.IG.NumNodes(); a++ {
		for _, b := range dk.IG.Children(graph.NodeID(a)) {
			p.probe(dk, graph.NodeID(a), b)
		}
	}
}

// TestUpdateLocalSimilarityMatchesReference holds Algorithm 4 on writer
// scratch to the map-based reference. On XMark at scale 0.05 every random
// reference edge is probed by both before AddEdge inserts it, first on the
// load-tuned index and then after PromoteLabel raised the reference labels'
// similarity, and every index edge is probed after that. XMark's label paths
// never branch past a dozen per level, so a dense random graph of three labels,
// whose paths multiply by about three per level, drives the probe into
// maxTrackedPaths. One scratch serves every probe, as the facade's serves
// every commit, and AddEdge runs on it too.
func TestUpdateLocalSimilarityMatchesReference(t *testing.T) {
	ds, err := experiments.XMarkDataset(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := ds.RandomEdges(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &alg4Probes{t: t}
	dk := core.Build(ds.G, ds.W.Requirements())
	dk.UseScratch(&p.s)
	insert := func(es [][2]graph.NodeID) {
		for _, e := range es {
			p.probe(dk, dk.IG.IndexOf(e[0]), dk.IG.IndexOf(e[1]))
			dk.AddEdge(e[0], e[1])
		}
	}
	insert(edges[:200])
	for _, rp := range ds.RefPairs {
		for _, name := range rp {
			dk.PromoteLabel(ds.G.Labels().Lookup(name), 16)
		}
	}
	insert(edges[200:])
	p.probeIndexEdges(dk)
	if err := core.CheckInvariant(dk.IG); err != nil {
		t.Fatal(err)
	}
	t.Logf("XMark: deepest probe extended %d levels", p.deepest)
	if p.deepest < 3 {
		t.Errorf("XMark probes extended at most %d levels, want several", p.deepest)
	}

	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	g.AddRoot()
	for n := 1; n < 24; n++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), g.AddNode(string(rune('a'+rng.Intn(3)))))
	}
	for i := 0; i < 48; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(24)), graph.NodeID(1+rng.Intn(23)))
	}
	dense := core.Build(g, core.ReqsFromNames(g.Labels(), map[string]int{"a": 12, "b": 12, "c": 12}))
	p.probeIndexEdges(dense)
	t.Logf("dense: %d probes stopped at maxTrackedPaths", p.capped)
	if p.capped == 0 {
		t.Error("no probe reached maxTrackedPaths")
	}
}
