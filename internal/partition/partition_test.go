package partition_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/oracle"
	"dkindex/internal/partition"
)

// sameGrouping reports whether two partitions induce the same equivalence
// relation, ignoring block numbering.
func sameGrouping(a, b oracle.Blocks) bool {
	if a.NumNodes() != b.NumNodes() || a.NumBlocks() != b.NumBlocks() {
		return false
	}
	fwd := make(map[partition.BlockID]partition.BlockID)
	bwd := make(map[partition.BlockID]partition.BlockID)
	for n := 0; n < a.NumNodes(); n++ {
		ba, bb := a.BlockOf(graph.NodeID(n)), b.BlockOf(graph.NodeID(n))
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

// validate checks what Partition.Validate checks, through the Blocks view:
// every block lists its members once each, and they are all its members.
func validate(p oracle.Blocks) error {
	listed := 0
	for b := range p.NumBlocks() {
		mem := p.Members(partition.BlockID(b))
		if len(mem) == 0 {
			return fmt.Errorf("empty block %d", b)
		}
		for _, n := range mem {
			if p.BlockOf(n) != partition.BlockID(b) {
				return fmt.Errorf("node %d listed in block %d but in block %d", n, b, p.BlockOf(n))
			}
		}
		listed += len(mem)
	}
	if listed != p.NumNodes() {
		return fmt.Errorf("blocks list %d nodes, want %d", listed, p.NumNodes())
	}
	return nil
}

// randomGraph builds a seeded random DAG-ish labeled graph with some back
// edges, for property tests.
func randomGraph(seed int64, nodes, labels, extraEdges int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	r := g.AddRoot()
	ids := []graph.NodeID{r}
	for i := 1; i < nodes; i++ {
		n := g.AddNode(string(rune('a' + rng.Intn(labels))))
		// Tree edge from an earlier node keeps everything root-reachable.
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

func TestNewByLabelGroupsByLabel(t *testing.T) {
	g := graph.FigureOneMovies()
	p := partition.NewByLabel(g)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Labels in figure 1: ROOT, movieDB, director, actor, movie, name,
	// title, year = 8 blocks.
	if p.NumBlocks() != 8 {
		t.Errorf("label split has %d blocks, want 8", p.NumBlocks())
	}
	if p.BlockOf(7) != p.BlockOf(9) || p.BlockOf(7) != p.BlockOf(5) {
		t.Error("all movie nodes must share the label-split block")
	}
}

func TestRefineRoundSeparatesByParents(t *testing.T) {
	g := graph.FigureOneMovies()
	p := partition.NewByLabel(g)
	res := partition.NewRefiner(g).Round(p, nil)
	if !res.Changed {
		t.Fatal("first refinement round should split something")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// After one round (1-bisimulation): movie 7 {director,actor parents} and
	// movie 10 {director,actor} together; movie 9 {director} separate;
	// movie 5 {movieDB} separate.
	if p.BlockOf(7) != p.BlockOf(10) {
		t.Error("movies 7 and 10 must stay together at k=1")
	}
	if p.BlockOf(7) == p.BlockOf(9) {
		t.Error("movies 7 and 9 must separate at k=1")
	}
	if p.BlockOf(7) == p.BlockOf(5) {
		t.Error("movies 7 and 5 must separate at k=1")
	}
}

func TestRefineRoundOriginLineage(t *testing.T) {
	g := graph.FigureOneMovies()
	p := partition.NewByLabel(g)
	before := make([]partition.BlockID, g.NumNodes())
	for n := range before {
		before[n] = p.BlockOf(graph.NodeID(n))
	}
	res := partition.NewRefiner(g).Round(p, nil)
	for n := 0; n < g.NumNodes(); n++ {
		nb := p.BlockOf(graph.NodeID(n))
		if res.Origin[nb] != before[n] {
			t.Fatalf("node %d: new block %d has origin %d, want %d",
				n, nb, res.Origin[nb], before[n])
		}
	}
}

func TestRefineRoundSelective(t *testing.T) {
	g := graph.FigureOneMovies()
	p := partition.NewByLabel(g)
	movieBlock := p.BlockOf(7)
	// Refine only the movie block: all other blocks must stay whole.
	res := partition.NewRefiner(g).Round(p, func(b partition.BlockID) bool { return b == movieBlock })
	if !res.Changed {
		t.Fatal("selective refinement should split the movie block")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.BlockOf(2) != p.BlockOf(3) {
		t.Error("director nodes split although their block was unselected")
	}
	// name nodes 6, 8 (director children) vs 12, 22 (actor children) would
	// split under full refinement but must not here.
	if p.BlockOf(6) != p.BlockOf(12) {
		t.Error("name nodes split although their block was unselected")
	}
	if p.BlockOf(7) == p.BlockOf(9) {
		t.Error("selected movie block did not split")
	}
}

func TestKBisimulationStabilizes(t *testing.T) {
	g := graph.FigureOneMovies()
	full, depth := partition.Bisimulation(g)
	if depth == 0 {
		t.Fatal("figure-1 bisimulation depth should be positive")
	}
	pk, rounds := partition.KBisimulation(g, 100)
	if rounds != depth {
		t.Errorf("KBisimulation stabilized after %d rounds, Bisimulation after %d", rounds, depth)
	}
	if !sameGrouping(full, pk) {
		t.Error("KBisimulation(100) != full bisimulation")
	}
}

func TestKBisimulationMonotone(t *testing.T) {
	g := randomGraph(7, 300, 4, 80)
	prevBlocks := 0
	for k := 0; k <= 6; k++ {
		p, _ := partition.KBisimulation(g, k)
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.NumBlocks() < prevBlocks {
			t.Fatalf("k=%d: blocks decreased from %d to %d", k, prevBlocks, p.NumBlocks())
		}
		prevBlocks = p.NumBlocks()
	}
}

func TestBisimulationPaperFacts(t *testing.T) {
	g := graph.FigureOneMovies()
	p, _ := partition.Bisimulation(g)
	if p.BlockOf(7) != p.BlockOf(10) {
		t.Error("paper: movies 7 and 10 are bisimilar")
	}
	if p.BlockOf(7) == p.BlockOf(9) {
		t.Error("paper: movies 7 and 9 are not bisimilar")
	}
	if p.BlockOf(2) != p.BlockOf(3) {
		t.Error("directors 2 and 3 should be bisimilar")
	}
}

func TestBisimulationAgreesWithSplitter(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, 200+int(seed)*37, 3+int(seed)%4, 60)
		a, _ := partition.Bisimulation(g)
		b := oracle.Splitter(g)
		if err := validate(b); err != nil {
			t.Fatalf("seed %d: splitter partition invalid: %v", seed, err)
		}
		if !sameGrouping(a, b) {
			t.Fatalf("seed %d: signature fixpoint (%d blocks) != splitter worklist (%d blocks)",
				seed, a.NumBlocks(), b.NumBlocks())
		}
	}
}

func TestBisimulationOnCycle(t *testing.T) {
	g := graph.TinyCycle()
	p, _ := partition.Bisimulation(g)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 3 {
		t.Errorf("tiny cycle bisimulation has %d blocks, want 3", p.NumBlocks())
	}
	s := oracle.Splitter(g)
	if !sameGrouping(p, s) {
		t.Error("cycle: splitter disagrees with fixpoint")
	}
}

func TestBisimulationRefinesLabelSplit(t *testing.T) {
	g := randomGraph(42, 500, 5, 150)
	p, _ := partition.Bisimulation(g)
	// Every bisimulation block must be label-homogeneous.
	for b := 0; b < p.NumBlocks(); b++ {
		mem := p.Members(partition.BlockID(b))
		for _, n := range mem[1:] {
			if g.Label(n) != g.Label(mem[0]) {
				t.Fatalf("block %d mixes labels", b)
			}
		}
	}
}

// bisimulation invariant: nodes in the same full-bisimulation block have the
// same sets of parent blocks.
func TestBisimulationStability(t *testing.T) {
	g := randomGraph(99, 400, 4, 120)
	p, _ := partition.Bisimulation(g)
	parentSig := func(n graph.NodeID) map[partition.BlockID]bool {
		s := make(map[partition.BlockID]bool)
		for _, par := range g.Parents(n) {
			s[p.BlockOf(par)] = true
		}
		return s
	}
	for b := 0; b < p.NumBlocks(); b++ {
		mem := p.Members(partition.BlockID(b))
		ref := parentSig(mem[0])
		for _, n := range mem[1:] {
			got := parentSig(n)
			if len(got) != len(ref) {
				t.Fatalf("block %d unstable: parent block sets differ in size", b)
			}
			for k := range ref {
				if !got[k] {
					t.Fatalf("block %d unstable: parent block %d missing", b, k)
				}
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := graph.FigureOneMovies()
	p := partition.NewByLabel(g)
	c := p.Clone()
	partition.NewRefiner(g).Round(c, nil)
	if p.NumBlocks() == c.NumBlocks() {
		t.Error("clone shares block storage")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDeterministicRefinement(t *testing.T) {
	g := randomGraph(5, 300, 4, 90)
	a, _ := partition.KBisimulation(g, 3)
	b, _ := partition.KBisimulation(g, 3)
	for n := 0; n < g.NumNodes(); n++ {
		if a.BlockOf(graph.NodeID(n)) != b.BlockOf(graph.NodeID(n)) {
			t.Fatal("KBisimulation is not deterministic (block numbering differs across runs)")
		}
	}
}
