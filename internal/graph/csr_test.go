package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// csrSpec is a compact, generatable description of a random labeled graph
// plus a mutation schedule; testing/quick produces values of it and the CSR
// property tests expand them.
type csrSpec struct {
	Seed    int64
	Nodes   uint8
	Labels  uint8
	Extra   uint8
	Mutates uint8
}

func (s csrSpec) build() *Graph {
	rng := rand.New(rand.NewSource(s.Seed))
	nodes := int(s.Nodes%120) + 2
	labels := int(s.Labels%5) + 1
	extra := int(s.Extra % 60)
	g := New()
	r := g.AddRoot()
	ids := []NodeID{r}
	for i := 1; i < nodes; i++ {
		n := g.AddNode(string(rune('a' + rng.Intn(labels))))
		g.AddEdge(ids[rng.Intn(len(ids))], n)
		ids = append(ids, n)
	}
	for i := 0; i < extra; i++ {
		from := ids[rng.Intn(len(ids))]
		to := ids[rng.Intn(len(ids))]
		if from != to && to != r {
			g.AddEdge(from, to)
		}
	}
	return g
}

// csrMatches checks that a CSR snapshot is element-identical to the
// adjacency it was built from: same row per node, same order, and offsets
// consistent with row lengths.
func csrMatches(t *testing.T, c *CSR, numNodes int, neighbors func(NodeID) []NodeID) bool {
	t.Helper()
	if c.NumNodes() != numNodes {
		t.Logf("CSR covers %d nodes, want %d", c.NumNodes(), numNodes)
		return false
	}
	total := 0
	for i := 0; i < numNodes; i++ {
		n := NodeID(i)
		want := neighbors(n)
		if !slices.Equal(c.Row(n), want) {
			t.Logf("node %d: CSR row %v, want %v", i, c.Row(n), want)
			return false
		}
		lo, hi := c.RowBounds(n)
		if int(hi-lo) != len(want) || int(lo) != total {
			t.Logf("node %d: bounds [%d,%d), want len %d at %d", i, lo, hi, len(want), total)
			return false
		}
		total += len(want)
	}
	return c.NumEdges() == total
}

// Property: parent and child CSR snapshots are element-identical to
// Parents/Children on random graphs, including after random edge inserts and
// removes (snapshots are rebuilt after each mutation — a CSR is a snapshot,
// not a view).
func TestQuickCSRMatchesAdjacency(t *testing.T) {
	f := func(s csrSpec) bool {
		g := s.build()
		if !csrMatches(t, NewCSR(g.NumNodes(), g.Parents), g.NumNodes(), g.Parents) ||
			!csrMatches(t, NewCSR(g.NumNodes(), g.Children), g.NumNodes(), g.Children) {
			return false
		}
		// Mutate: random edge inserts and removes, re-snapshot, re-check.
		rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
		for m := 0; m < int(s.Mutates%8)+1; m++ {
			from := NodeID(rng.Intn(g.NumNodes()))
			to := NodeID(rng.Intn(g.NumNodes()))
			if rng.Intn(2) == 0 {
				if from != to && to != g.Root() {
					g.AddEdge(from, to)
				}
			} else if ch := g.Children(from); len(ch) > 0 {
				g.RemoveEdge(from, ch[rng.Intn(len(ch))])
			}
			if !csrMatches(t, NewCSR(g.NumNodes(), g.Parents), g.NumNodes(), g.Parents) ||
				!csrMatches(t, NewCSR(g.NumNodes(), g.Children), g.NumNodes(), g.Children) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCSREmptyGraph(t *testing.T) {
	c := NewCSR(0, func(NodeID) []NodeID { return nil })
	if c.NumNodes() != 0 || c.NumEdges() != 0 {
		t.Fatalf("empty CSR: %d nodes, %d edges", c.NumNodes(), c.NumEdges())
	}
}

// csrOf lays rows out back to back in one CSR.
func csrOf(rows ...[]NodeID) CSR {
	c := MakeCSR(len(rows), 0)
	for i, r := range rows {
		c.Append(r...)
		c.Close(i + 1)
	}
	return c
}

// Property: FromCSR builds the graph an incremental AddNodeID/AddEdge build
// makes of the same rows — labels, both directions, posting lists, edge
// count and root — and the result validates.
func TestQuickFromCSRMatchesIncremental(t *testing.T) {
	f := func(s csrSpec) bool {
		g := s.build()
		labels := make([]LabelID, g.NumNodes())
		for n := range labels {
			labels[n] = g.Label(NodeID(n))
		}
		got, err := FromCSR(g.Labels(), labels, g.Root(), *NewCSR(g.NumNodes(), g.Children))
		if err != nil {
			t.Log(err)
			return false
		}
		if err := got.Validate(); err != nil {
			t.Log(err)
			return false
		}
		if a, b := dumpGraph(got), dumpGraph(g); string(a) != string(b) {
			t.Logf("FromCSR built\n%s\nthe incremental build\n%s", a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFromCSRRejectsBadInput(t *testing.T) {
	tab := NewLabelTable()
	tab.Intern(RootLabel)
	tab.Intern("a")
	two := []LabelID{0, 1}
	for _, c := range []struct {
		name     string
		labels   []LabelID
		root     NodeID
		children CSR
	}{
		{"fewer labels than rows", []LabelID{0}, 0, csrOf([]NodeID{1}, nil)},
		{"more labels than rows", two, 0, csrOf(nil)},
		{"no rows at all", nil, InvalidNode, CSR{}},
		{"label past the table", []LabelID{0, 2}, 0, csrOf(nil, nil)},
		{"negative label", []LabelID{0, -1}, 0, csrOf(nil, nil)},
		{"root past the nodes", two, 2, csrOf(nil, nil)},
		{"negative root", two, -2, csrOf(nil, nil)},
		{"child past the nodes", two, 0, csrOf([]NodeID{2}, nil)},
		{"negative child", two, 0, csrOf([]NodeID{-1}, nil)},
		{"descending row", two, 0, csrOf([]NodeID{1, 0}, nil)},
		{"repeated child", two, 0, csrOf(nil, []NodeID{1, 1})},
	} {
		if g, err := FromCSR(tab, c.labels, c.root, c.children); err == nil {
			t.Errorf("%s: accepted, built %s", c.name, dumpGraph(g))
		}
	}
}

// TestFromCSRRowIsolation: FromCSR's pages lie over two flat arrays, each
// page's rows back to back, so an edit that kept spare capacity or shifted
// too far would land in a neighbouring row or page. Each edit of a built
// graph — at either side of a page edge (rows 31 and 32) and in a row of
// more children than a page has rows — must leave every other row as it
// was, and a clone taken before it must not see it at all.
func TestFromCSRRowIsolation(t *testing.T) {
	rows := make([][]NodeID, 70)
	for v := 1; v < 65; v++ {
		rows[0] = append(rows[0], NodeID(v)) // a high-degree row spanning two pages of parents
	}
	rows[1], rows[2] = []NodeID{2, 3}, []NodeID{3}
	rows[31], rows[32] = []NodeID{32, 40}, []NodeID{33}
	build := func() *Graph {
		tab := NewLabelTable()
		tab.Intern(RootLabel)
		g, err := FromCSR(tab, make([]LabelID, len(rows)), 0, csrOf(rows...))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	incremental := func() *Graph {
		g := New()
		g.AddRoot()
		for range len(rows) - 1 {
			g.AddNode(RootLabel)
		}
		for u, row := range rows {
			for _, v := range row {
				g.AddEdge(NodeID(u), v)
			}
		}
		return g
	}
	for _, e := range []struct {
		name string
		edit func(*Graph)
	}{
		{"add at a row's end", func(g *Graph) { g.AddEdge(1, 5) }},
		{"add at a row's start", func(g *Graph) { g.AddEdge(2, 1) }},
		{"remove", func(g *Graph) { g.RemoveEdge(1, 2) }},
		{"remove then add", func(g *Graph) { g.RemoveEdge(1, 2); g.AddEdge(1, 6) }},
		{"add to a page's last row", func(g *Graph) { g.AddEdge(31, 69) }},
		{"add to a page's first row", func(g *Graph) { g.AddEdge(32, 31) }},
		{"remove on both sides of a page edge", func(g *Graph) { g.RemoveEdge(31, 32); g.RemoveEdge(32, 33) }},
		{"empty a page's first row, then refill it", func(g *Graph) { g.RemoveEdge(32, 33); g.AddEdge(32, 0); g.AddEdge(31, 33) }},
		{"add to a high-degree row", func(g *Graph) { g.AddEdge(0, 69); g.AddEdge(0, 65) }},
		{"remove from a high-degree row", func(g *Graph) { g.RemoveEdge(0, 1); g.RemoveEdge(0, 32); g.RemoveEdge(0, 64) }},
	} {
		want := incremental()
		e.edit(want)
		g := build()
		e.edit(g)
		if got := dumpGraph(g); string(got) != string(dumpGraph(want)) {
			t.Errorf("%s: edited graph\n%s\nwant\n%s", e.name, got, dumpGraph(want))
		}
		g = build()
		c := g.Clone()
		before := dumpGraph(c)
		e.edit(g)
		if got := dumpGraph(g); string(got) != string(dumpGraph(want)) {
			t.Errorf("%s after a clone: edited graph\n%s\nwant\n%s", e.name, got, dumpGraph(want))
		}
		if got := dumpGraph(c); string(got) != string(before) {
			t.Errorf("%s: the clone saw the edit\n%s\nwant\n%s", e.name, got, before)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", e.name, err)
		}
	}
}
