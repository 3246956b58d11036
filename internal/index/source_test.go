package index

import (
	"slices"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
)

// TestDataSourceAppendExtent checks the identity source: every node's extent
// is itself, dst prefixes survive, and nil and empty dst both work.
func TestDataSourceAppendExtent(t *testing.T) {
	g := graph.FigureOneMovies()
	s := DataSource{G: g}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		if got := s.AppendExtent(nil, id); len(got) != 1 || got[0] != id {
			t.Fatalf("AppendExtent(nil, %d) = %v", n, got)
		}
		if got := s.AppendExtent([]graph.NodeID{}, id); len(got) != 1 || got[0] != id {
			t.Fatalf("AppendExtent(empty, %d) = %v", n, got)
		}
	}
	prefix := []graph.NodeID{7, 3}
	got := s.AppendExtent(prefix, 5)
	if want := []graph.NodeID{7, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("prefix run = %v, want %v", got, want)
	}
}

// TestIndexGraphAppendExtent checks the succinct-set source against the
// Extent copy for every index node — including singleton extents — plus
// prefix preservation and the caller-owns-result contract.
func TestIndexGraphAppendExtent(t *testing.T) {
	g := graph.FigureOneMovies()
	for name, ig := range map[string]*IndexGraph{
		"1-index":    Build1Index(g),
		"labelsplit": BuildLabelSplit(g),
	} {
		singles := 0
		for n := 0; n < ig.NumNodes(); n++ {
			id := graph.NodeID(n)
			want := ig.Extent(id)
			if len(want) == 1 {
				singles++
			}
			got := ig.AppendExtent(nil, id)
			if !slices.Equal(got, want) {
				t.Fatalf("%s node %d: AppendExtent = %v, want %v", name, n, got, want)
			}
			// dst prefix survives and the extent lands after it.
			prefix := []graph.NodeID{99, 98}
			got = ig.AppendExtent(prefix, id)
			if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
				t.Fatalf("%s node %d: prefixed AppendExtent = %v", name, n, got)
			}
			// Callers own the result: scribbling over it must not reach the
			// index's compressed storage.
			for i := range got {
				got[i] = -1
			}
			if again := ig.AppendExtent(nil, id); !slices.Equal(again, want) {
				t.Fatalf("%s node %d: extent corrupted by caller mutation: %v", name, n, again)
			}
		}
		if singles == 0 {
			t.Fatalf("%s: no singleton extent exercised", name)
		}
		if err := ig.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestIndexGraphAppendExtentEmpty checks the empty-extent edge directly:
// no construction path produces an empty extent (partition blocks are
// non-empty by invariant), so the case is planted white-box to pin the
// contract that AppendExtent returns dst unchanged.
func TestIndexGraphAppendExtentEmpty(t *testing.T) {
	g := graph.FigureOneMovies()
	ig := Build1Index(g)
	ig.extents.Append(nil, nodeset.Set{})
	empty := graph.NodeID(ig.extents.Len() - 1)
	if got := ig.AppendExtent(nil, empty); len(got) != 0 {
		t.Fatalf("empty extent appended %v", got)
	}
	prefix := []graph.NodeID{4, 2}
	if got := ig.AppendExtent(prefix, empty); !slices.Equal(got, prefix) {
		t.Fatalf("empty extent mangled prefix: %v", got)
	}
}

// buildGraft constructs a GraftSource the way AKSubgraphAdd and Algorithm 3
// do: a document sub-index grafted under the base index's root class, the
// document's node i >= 1 having become data node firstNew+i-1.
func buildGraft(t *testing.T) (gs *GraftSource, ig, ih *IndexGraph, firstNew graph.NodeID) {
	t.Helper()
	g := graph.FigureOneMovies()
	ig = BuildAK(g, 2)
	h := graph.FigureOneMovies()
	hg := graph.NewWithLabels(g.Labels())
	hgRoot := hg.AddRoot()
	hgOf := make([]graph.NodeID, h.NumNodes())
	firstNew = graph.NodeID(g.NumNodes())
	for n := 0; n < h.NumNodes(); n++ {
		hn := graph.NodeID(n)
		if hn == h.Root() {
			hgOf[n] = hgRoot
			continue
		}
		l := g.Labels().Intern(h.LabelName(hn))
		g.AddNodeID(l)
		hgOf[n] = hg.AddNodeID(l)
	}
	for n := 0; n < h.NumNodes(); n++ {
		for _, c := range h.Children(graph.NodeID(n)) {
			hg.AddEdge(hgOf[n], hgOf[c])
		}
	}
	ih = BuildAK(hg, 1)
	gs, err := NewGraftSource(ig, ih, firstNew)
	if err != nil {
		t.Fatal(err)
	}
	return gs, ig, ih, firstNew
}

// TestGraftSourceAppendExtent checks both halves of the composite: base
// nodes delegate to the base index, grafted nodes offset the sub-index's
// extents to the ids the document's nodes received, ascending and above
// every id the base index covers (what IndexGraph.GraftExtent relies on).
func TestGraftSourceAppendExtent(t *testing.T) {
	gs, ig, ih, firstNew := buildGraft(t)

	for n := 0; n < ig.NumNodes(); n++ {
		id := graph.NodeID(n)
		want := ig.Extent(id)
		if got := gs.AppendExtent(nil, id); !slices.Equal(got, want) {
			t.Fatalf("base node %d: %v, want %v", n, got, want)
		}
	}
	singles, covered := 0, 0
	for n := ig.NumNodes(); n < gs.NumNodes(); n++ {
		id := graph.NodeID(n)
		var want []graph.NodeID
		for _, hn := range ih.Extent(gs.toIH(id)) {
			want = append(want, firstNew+hn-1)
		}
		if len(want) == 1 {
			singles++
		}
		covered += len(want)
		got := gs.AppendExtent(nil, id)
		if !slices.Equal(got, want) || !slices.IsSorted(got) || got[0] < firstNew {
			t.Fatalf("grafted node %d: %v, want %v", n, got, want)
		}
		// Prefix preservation with a non-empty dst.
		prefixed := gs.AppendExtent([]graph.NodeID{42}, id)
		if prefixed[0] != 42 || !slices.Equal(prefixed[1:], want) {
			t.Fatalf("grafted node %d: prefixed run %v", n, prefixed)
		}
		// Callers own the result.
		for i := range got {
			got[i] = -1
		}
		if again := gs.AppendExtent(nil, id); !slices.Equal(again, want) {
			t.Fatalf("grafted node %d: extent corrupted by caller mutation: %v", n, again)
		}
	}
	if singles == 0 {
		t.Fatal("no singleton grafted extent exercised")
	}
	if want := ih.Data().NumNodes() - 1; covered != want {
		t.Fatalf("grafted extents cover %d document nodes, want %d (all but the root)", covered, want)
	}
}

// TestGraftSourceAdjacency checks the adjacency translated at construction
// against the definition: a grafted node's neighbours are the sub-index's,
// renumbered, with the sub-index's root class replaced by the base index's;
// base nodes keep their own lists, the root class's children gaining the
// document's top-level classes.
func TestGraftSourceAdjacency(t *testing.T) {
	gs, ig, ih, _ := buildGraft(t)
	translate := func(ns []graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		for _, n := range ns {
			if n == gs.ihRoot {
				out = append(out, gs.igRoot)
			} else {
				out = append(out, gs.fromIH(n))
			}
		}
		return out
	}
	for n := 0; n < gs.NumNodes(); n++ {
		id := graph.NodeID(n)
		at, from := id, ig
		if n >= gs.Base() {
			at, from = gs.toIH(id), ih
		}
		wantP, wantC := from.Parents(at), from.Children(at)
		if from == ih {
			wantP, wantC = translate(wantP), translate(wantC)
		}
		if id == gs.igRoot {
			wantC = append(slices.Clone(wantC), translate(ih.Children(gs.ihRoot))...)
		}
		if got := gs.Children(id); !slices.Equal(got, wantC) {
			t.Fatalf("node %d children %v, want %v", n, got, wantC)
		}
		if got := gs.Parents(id); !slices.Equal(got, wantP) {
			t.Fatalf("node %d parents %v, want %v", n, got, wantP)
		}
		if gs.Label(id) != from.Label(at) || gs.MemberK(id) != from.K(at) {
			t.Fatalf("node %d: label %d k %d, want %d and %d", n, gs.Label(id), gs.MemberK(id), from.Label(at), from.K(at))
		}
	}
	if len(gs.Children(gs.igRoot)) == len(ig.Children(gs.igRoot)) {
		t.Fatal("the root class gained no grafted child")
	}
}
