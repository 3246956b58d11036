package graph

import (
	"strings"
	"testing"
)

func TestLabelTableInternIsIdempotent(t *testing.T) {
	tab := NewLabelTable()
	a := tab.Intern("a")
	b := tab.Intern("b")
	if a == b {
		t.Fatalf("distinct labels interned to same id %d", a)
	}
	if got := tab.Intern("a"); got != a {
		t.Errorf("re-intern of a = %d, want %d", got, a)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	if tab.Name(a) != "a" || tab.Name(b) != "b" {
		t.Errorf("Name round-trip failed: %q %q", tab.Name(a), tab.Name(b))
	}
}

func TestLabelTableLookupUnknown(t *testing.T) {
	tab := NewLabelTable()
	if got := tab.Lookup("missing"); got != InvalidLabel {
		t.Errorf("Lookup(missing) = %d, want InvalidLabel", got)
	}
}

func TestLabelTableNameOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name(99) did not panic")
		}
	}()
	NewLabelTable().Name(99)
}

func TestLabelTableClone(t *testing.T) {
	tab := NewLabelTable()
	tab.Intern("x")
	c := tab.Clone()
	c.Intern("y")
	if tab.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: orig %d, clone %d", tab.Len(), c.Len())
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if !g.AddEdge(a, b) {
		t.Fatal("first AddEdge returned false")
	}
	if g.AddEdge(a, b) {
		t.Error("duplicate AddEdge returned true")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Error("HasEdge direction wrong")
	}
}

func TestAdjacencyBothDirections(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b)
	g.AddEdge(c, b)
	if got := g.Children(a); len(got) != 1 || got[0] != b {
		t.Errorf("Children(a) = %v", got)
	}
	if got := g.Parents(b); len(got) != 2 {
		t.Errorf("Parents(b) = %v, want 2 parents", got)
	}
	if len(g.Parents(b)) != 2 || len(g.Children(a)) != 1 {
		t.Error("degree accounting wrong")
	}
}

func TestAddRootTwicePanics(t *testing.T) {
	g := New()
	g.AddRoot()
	defer func() {
		if recover() == nil {
			t.Error("second AddRoot did not panic")
		}
	}()
	g.AddRoot()
}

func TestValidateCatchesNothingOnGoodGraph(t *testing.T) {
	g := FigureOneMovies()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate() = %v on figure-1 graph", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := FigureOneMovies()
	c := g.Clone()
	n := c.AddNode("extra")
	c.AddEdge(c.Root(), n)
	if g.NumNodes() == c.NumNodes() {
		t.Error("clone shares node storage")
	}
	if g.NumEdges() == c.NumEdges() {
		t.Error("clone shares edge storage")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}
}

func TestNodesByLabel(t *testing.T) {
	g := FigureOneMovies()
	byLabel := g.NodesByLabel()
	movie := g.Labels().Lookup("movie")
	if movie == InvalidLabel {
		t.Fatal("movie label not interned")
	}
	if got := len(byLabel[movie]); got != 4 {
		t.Errorf("movie nodes = %d, want 4 (5,7,9,10)", got)
	}
}

func TestBFSDepths(t *testing.T) {
	g := FigureOneMovies()
	depth := map[NodeID]int{}
	g.BFS(g.Root(), func(n NodeID, d int) bool {
		depth[n] = d
		return true
	})
	if depth[1] != 1 {
		t.Errorf("movieDB depth = %d, want 1", depth[1])
	}
	if depth[22] != 5 {
		t.Errorf("node 22 depth = %d, want 5 (ROOT.movieDB.actor.movie.actor.name)", depth[22])
	}
	if len(depth) != g.NumNodes() {
		t.Errorf("BFS visited %d nodes, want all %d", len(depth), g.NumNodes())
	}
}

func TestBFSPruning(t *testing.T) {
	g := FigureOneMovies()
	count := 0
	g.BFS(g.Root(), func(n NodeID, d int) bool {
		count++
		return d < 1 // never descend past movieDB
	})
	if count != 2 { // ROOT and movieDB; movieDB's children are pruned
		t.Errorf("visited %d nodes under pruning, want 2", count)
	}
}

func TestMaxDepth(t *testing.T) {
	g := FigureOneMovies()
	if d := g.MaxDepth(); d != 5 {
		t.Errorf("MaxDepth = %d, want 5", d)
	}
	if d := New().MaxDepth(); d != 0 {
		t.Errorf("MaxDepth of rootless graph = %d, want 0", d)
	}
}

func TestFigureOneBisimilarityFacts(t *testing.T) {
	g := FigureOneMovies()
	// The text's justification: node 7 has a parent labeled actor, node 9
	// does not.
	actor := g.Labels().Lookup("actor")
	has := func(n NodeID) bool {
		for _, p := range g.Parents(n) {
			if g.Label(p) == actor {
				return true
			}
		}
		return false
	}
	if !has(7) || has(9) || !has(10) {
		t.Error("figure-1 reconstruction violates the paper's parent-label facts")
	}
}

func TestWriteDOT(t *testing.T) {
	g := FigureOneMovies()
	var b strings.Builder
	if err := g.WriteDOT(&b, "fig-1"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "digraph fig_1") {
		t.Error("DOT header missing or name not sanitized")
	}
	if !strings.Contains(out, "n0 -> n1;") {
		t.Error("DOT output missing root edge")
	}
	if !strings.Contains(out, "doublecircle") {
		t.Error("DOT output does not mark the root")
	}
}

func TestComputeStats(t *testing.T) {
	g := FigureOneMovies()
	s := g.ComputeStats()
	if s.Nodes != 23 || s.Edges != 24 {
		t.Errorf("stats = %+v, want 23 nodes / 24 edges", s)
	}
	if s.MaxOutDeg != 4 { // movieDB has 4 children
		t.Errorf("MaxOutDeg = %d, want 4", s.MaxOutDeg)
	}
	if s.MaxInDeg != 2 { // movies 7 and 10 have 2 parents
		t.Errorf("MaxInDeg = %d, want 2", s.MaxInDeg)
	}
	if !strings.Contains(s.String(), "nodes=23") {
		t.Error("Stats.String missing node count")
	}
}

func TestReachableFrom(t *testing.T) {
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddNode("orphan")
	g.AddEdge(r, a)
	g.AddEdge(a, b)
	reach := g.ReachableFrom(r)
	if len(reach) != 3 {
		t.Errorf("reachable = %d nodes, want 3", len(reach))
	}
}

func TestRemoveEdge(t *testing.T) {
	g := FigureOneMovies()
	if !g.HasEdge(2, 7) {
		t.Fatal("precondition: edge 2->7")
	}
	edges := g.NumEdges()
	if !g.RemoveEdge(2, 7) {
		t.Fatal("RemoveEdge returned false for existing edge")
	}
	if g.HasEdge(2, 7) {
		t.Error("edge still present")
	}
	if g.NumEdges() != edges-1 {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), edges-1)
	}
	if g.RemoveEdge(2, 7) {
		t.Error("second removal returned true")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Adjacency stays sorted after removal + reinsertion.
	g.AddEdge(2, 7)
	kids := g.Children(2)
	for i := 1; i < len(kids); i++ {
		if kids[i-1] >= kids[i] {
			t.Fatal("children not sorted after remove/re-add")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyCanonicalOrder(t *testing.T) {
	// Insert edges in descending order; adjacency must still be ascending.
	g := New()
	r := g.AddRoot()
	var ids []NodeID
	for i := 0; i < 6; i++ {
		ids = append(ids, g.AddNode("x"))
	}
	for i := len(ids) - 1; i >= 0; i-- {
		g.AddEdge(r, ids[i])
		g.AddEdge(ids[i], ids[0]) // parents of ids[0] also built descending
	}
	kids := g.Children(r)
	for i := 1; i < len(kids); i++ {
		if kids[i-1] >= kids[i] {
			t.Fatal("children not ascending")
		}
	}
	pars := g.Parents(ids[0])
	for i := 1; i < len(pars); i++ {
		if pars[i-1] >= pars[i] {
			t.Fatal("parents not ascending")
		}
	}
}

func TestCompactReachable(t *testing.T) {
	g := FigureOneMovies()
	// Detach director 3's subtree (movie 9, 10 stay reachable via actor 4
	// for 10; 9 and its children become unreachable; 8 too).
	g.RemoveEdge(1, 3)
	out, mapping, err := g.CompactReachable()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.NumNodes() >= g.NumNodes() {
		t.Errorf("compaction kept %d of %d nodes", out.NumNodes(), g.NumNodes())
	}
	if mapping[3] != InvalidNode || mapping[8] != InvalidNode || mapping[9] != InvalidNode {
		t.Error("detached nodes not dropped")
	}
	// Movie 10 is still reachable through actor 4's reference edge.
	if mapping[10] == InvalidNode {
		t.Error("reference-reachable node dropped")
	}
	// Labels survive the renumbering.
	if out.LabelName(mapping[10]) != "movie" {
		t.Errorf("label of remapped node = %s", out.LabelName(mapping[10]))
	}
	if out.Root() != mapping[g.Root()] {
		t.Error("root not remapped")
	}
	// Rootless graphs refuse.
	if _, _, err := New().CompactReachable(); err == nil {
		t.Error("rootless compaction accepted")
	}
}
