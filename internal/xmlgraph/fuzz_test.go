package xmlgraph

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dkindex/internal/graph"
)

// FuzzLoad checks that arbitrary bytes never panic the loader, that every
// accepted document yields a structurally valid graph, and that the
// tokenizer's two sinks agree: LoadDoc accepts exactly what Load accepts,
// reports the same, and its compact form is Load's graph node for node —
// label names, children rows and root.
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
			if err := sameAsGraph(d, g); err != nil {
				t.Fatalf("the compact form is not Load's graph: %v", err)
			}
		}
	})
}

// sameAsGraph compares a compact document with the graph Load made of the
// same bytes: node count, root, every label name and every children row.
func sameAsGraph(d *Doc, g *graph.Graph) error {
	edges := 0
	if d.NumNodes() != g.NumNodes() || d.Root() != g.Root() {
		return fmt.Errorf("%d nodes rooted at %d, want %d rooted at %d", d.NumNodes(), d.Root(), g.NumNodes(), g.Root())
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		if d.LabelName(id) != g.LabelName(id) {
			return fmt.Errorf("node %d labeled %q, want %q", n, d.LabelName(id), g.LabelName(id))
		}
		if !slices.Equal(d.Children(id), g.Children(id)) {
			return fmt.Errorf("node %d children %v, want %v", n, d.Children(id), g.Children(id))
		}
		edges += len(d.Children(id))
	}
	if edges != g.NumEdges() {
		return fmt.Errorf("%d edges, want %d", edges, g.NumEdges())
	}
	return nil
}
