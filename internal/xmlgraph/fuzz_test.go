package xmlgraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dkindex/internal/graph"
)

// FuzzLoad checks that arbitrary bytes never panic the loader, that every
// accepted document yields a structurally valid graph, and that Load, which
// builds its graph from LoadDoc's rows at once, accepts exactly what LoadDoc
// accepts, reports the same, and makes the graph an edge-by-edge build of
// those rows makes.
func FuzzLoad(f *testing.F) {
	for _, seed := range []string{
		`<a/>`,
		`<a><b/></a>`,
		`<a id="1"><b ref="1"/></a>`,
		`<a id="1"><b ref="2"/></a>`,
		`<a><b></a>`,
		`<a></a><b></b>`,
		`<?xml version="1.0"?><a x="1" idref="q w"/>`,
		`<a>text<b/>more</a>`,
		``,
		`not xml at all`,
		`<a id="x" id="x"/>`,
		`<ROOT><x/></ROOT>`,
		`<a><ROOT><ROOT/></ROOT></a>`,
		`<a id="s" ref="s"/>`,
		`<a ref="c b c"><b id="b"/><c id="c" idref="b"/></a>`,
		`<a id="p"><b ref="p p"><c ref="p"/></b></a>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<16 {
			return
		}
		for _, opts := range []*Options{
			nil,
			{IncludeValues: true, IncludeAttributes: true},
		} {
			g, rep, err := Load(strings.NewReader(doc), opts)
			d, drep, derr := LoadDoc(strings.NewReader(doc), opts)
			if (err == nil) != (derr == nil) {
				t.Fatalf("Load says %v, LoadDoc says %v", err, derr)
			}
			if err != nil {
				continue
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted document produced invalid graph: %v", err)
			}
			if g.Root() < 0 {
				t.Fatal("accepted document has no root")
			}
			if rep.Elements <= 0 {
				t.Fatal("accepted document reported no elements")
			}
			if !reflect.DeepEqual(rep, drep) {
				t.Fatalf("Load reports %+v, LoadDoc %+v", rep, drep)
			}
			if got, want := dump(g), dump(incremental(d)); got != want {
				t.Fatalf("Load built\n%s\nan edge-by-edge build of LoadDoc's rows\n%s", got, want)
			}
		}
	})
}

// incremental builds d into a graph one node and one edge at a time, the
// way graphs were built before FromCSR.
func incremental(d *Doc) *graph.Graph {
	g := graph.New()
	g.AddRoot()
	for n := 1; n < d.NumNodes(); n++ {
		g.AddNode(d.LabelName(graph.NodeID(n)))
	}
	for n := range d.NumNodes() {
		for _, c := range d.Children(graph.NodeID(n)) {
			g.AddEdge(graph.NodeID(n), c)
		}
	}
	return g
}

// dump renders what a reader can observe of g: root, edge count, the label
// table, the per-label lists, and every node's label and both rows.
func dump(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "root %d edges %d", g.Root(), g.NumEdges())
	for l := range g.NumLabels() {
		list := g.NodesWithLabel(graph.LabelID(l))
		fmt.Fprintf(&b, " %s=%v", g.Labels().Name(graph.LabelID(l)), list.AppendTo(nil))
	}
	for n := range g.NumNodes() {
		id := graph.NodeID(n)
		fmt.Fprintf(&b, "\n%d %d %v %v", n, g.Label(id), g.Children(id), g.Parents(id))
	}
	return b.String()
}
