package xmlgraph

import (
	"strings"
	"testing"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
)

const moviesDoc = `<?xml version="1.0"?>
<movieDB>
  <director id="d1">
    <name>Lynch</name>
    <movie id="m1"><title>Dune</title><year>1984</year></movie>
  </director>
  <director id="d2">
    <name>Scott</name>
    <movie id="m2"><title>Alien</title><year>1979</year></movie>
    <movie id="m3"><title>Blade Runner</title><year>1982</year><actor ref="a2"><name>Ford</name></actor></movie>
  </director>
  <actor id="a1" ref="m1 m3"><name>MacLachlan</name></actor>
  <movie id="m4"><title>Heat</title><actor id="a2"><name>Pacino</name></actor></movie>
</movieDB>
`

func TestLoadBasicStructure(t *testing.T) {
	g, rep, err := Load(strings.NewReader(moviesDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Root() == graph.InvalidNode || g.LabelName(g.Root()) != graph.RootLabel {
		t.Fatal("missing ROOT node")
	}
	// 1 movieDB + 2 director + 4 movie + 4 title + 3 year + 2 actor + 5 name
	// + 1 extra actor element inside m3 = 22 elements.
	if rep.Elements != 22 {
		t.Errorf("elements = %d, want 22", rep.Elements)
	}
	if rep.Values != 0 || rep.Attributes != 0 {
		t.Error("default options must not materialize values or attributes")
	}
	// actor a1 -> m1, m3 (IDREFS), actor element under m3 -> a2... ref="a2"
	// is on the actor inside m3, pointing at actor a2: 3 reference edges.
	if rep.ReferenceEdges != 3 {
		t.Errorf("reference edges = %d, want 3", rep.ReferenceEdges)
	}
	if len(rep.DanglingRefs) != 0 {
		t.Errorf("dangling refs = %v", rep.DanglingRefs)
	}
}

func TestLoadReferenceEdgesResolve(t *testing.T) {
	g, _, err := Load(strings.NewReader(moviesDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate actor.movie.title: only reachable through reference edges.
	q := []graph.LabelID{
		g.Labels().Lookup("actor"),
		g.Labels().Lookup("movie"),
		g.Labels().Lookup("title"),
	}
	res, _ := eval.Data(g, q)
	// a1 -> m1 (Dune), a1 -> m3 (Blade Runner): two titles.
	if len(res) != 2 {
		t.Errorf("actor.movie.title = %v, want 2 titles", res)
	}
}

func TestLoadWithValues(t *testing.T) {
	g, rep, err := Load(strings.NewReader(moviesDoc), &Options{IncludeValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Values == 0 {
		t.Fatal("no VALUE nodes created")
	}
	// Every name has text: name -> VALUE must match rep count relationships.
	q := []graph.LabelID{g.Labels().Lookup("name"), g.Labels().Lookup(graph.ValueLabel)}
	res, _ := eval.Data(g, q)
	if len(res) != 5 {
		t.Errorf("name.VALUE = %d results, want 5", len(res))
	}
}

func TestLoadWithAttributes(t *testing.T) {
	// Note href would be consumed by the default "ends in ref" reference
	// heuristic (XLink hrefs are references); kind and class are plain.
	doc := `<a kind="x" id="n1"><b class="c"/></a>`
	g, rep, err := Load(strings.NewReader(doc), &Options{IncludeAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	// id is consumed; kind and class become nodes.
	if rep.Attributes != 2 {
		t.Errorf("attributes = %d, want 2", rep.Attributes)
	}
	if g.Labels().Lookup("@kind") == graph.InvalidLabel {
		t.Error("@kind label missing")
	}
	if g.Labels().Lookup("@id") != graph.InvalidLabel {
		t.Error("id attribute must not be materialized")
	}
}

func TestLoadDanglingRef(t *testing.T) {
	doc := `<a><b ref="nope"/><c id="x"/></a>`
	_, rep, err := Load(strings.NewReader(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DanglingRefs) != 1 || rep.DanglingRefs[0] != "nope" {
		t.Errorf("dangling refs = %v, want [nope]", rep.DanglingRefs)
	}
	if rep.ReferenceEdges != 0 {
		t.Error("dangling ref created an edge")
	}
}

func TestLoadCustomRefAttrs(t *testing.T) {
	doc := `<a><b link="x"/><c id="x"/><d wref="x"/></a>`
	// With explicit IDRefAttrs, the "ends in ref" heuristic is off.
	_, rep, err := Load(strings.NewReader(doc), &Options{IDRefAttrs: []string{"link"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReferenceEdges != 1 {
		t.Errorf("reference edges = %d, want 1 (only link=)", rep.ReferenceEdges)
	}
	// Default heuristic picks up wref.
	_, rep, err = Load(strings.NewReader(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReferenceEdges != 1 {
		t.Errorf("default heuristic edges = %d, want 1 (wref=)", rep.ReferenceEdges)
	}
}

func TestLoadMalformed(t *testing.T) {
	for _, doc := range []string{
		``,
		`   `,
		`<a><b></a>`,
		`<a></a><b></b>`,
		`<a>`,
		`plain text`,
	} {
		if _, _, err := Load(strings.NewReader(doc), nil); err == nil {
			t.Errorf("doc %q: expected error", doc)
		}
	}
}

func TestElemWriteAndRoundTrip(t *testing.T) {
	root := NewElem("catalog")
	item := root.Child("item")
	item.Attr("id", "i1")
	item.Child("name").Text = "Widget & Co"
	other := root.Child("item")
	other.Attr("id", "i2")
	other.Attr("ref", "i1")

	var b strings.Builder
	if err := root.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Widget &amp; Co") {
		t.Error("text not escaped")
	}
	if root.CountNodes() != 4 {
		t.Errorf("CountNodes = %d, want 4", root.CountNodes())
	}

	g, rep, err := Load(strings.NewReader(out), &Options{IncludeValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elements != 4 {
		t.Errorf("round-trip elements = %d, want 4", rep.Elements)
	}
	if rep.ReferenceEdges != 1 {
		t.Errorf("round-trip reference edges = %d, want 1", rep.ReferenceEdges)
	}
	if rep.Values != 1 {
		t.Errorf("round-trip values = %d, want 1", rep.Values)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestElemAppendChaining(t *testing.T) {
	e := NewElem("a").Append(NewElem("b")).Attr("x", "1")
	if len(e.Children) != 1 || e.Children[0].Name != "b" {
		t.Error("Append broken")
	}
	if len(e.Attrs) != 1 {
		t.Error("Attr chaining broken")
	}
}
