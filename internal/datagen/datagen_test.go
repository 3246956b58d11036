package datagen

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/xmlgraph"
)

func TestXMarkDeterministic(t *testing.T) {
	cfg := XMarkScale(0.02)
	a := XMark(cfg)
	b := XMark(cfg)
	var ba, bb bytes.Buffer
	if err := a.WriteXML(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteXML(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("XMark generation is not deterministic")
	}
}

func TestXMarkScaleApproximation(t *testing.T) {
	doc := XMark(XMarkScale(0.05))
	n := doc.CountNodes()
	if n < 2500 || n > 10000 {
		t.Errorf("scale 0.05 produced %d nodes, want roughly 5000", n)
	}
	big := XMark(XMarkScale(0.1)).CountNodes()
	if big <= n {
		t.Error("larger scale did not produce a larger document")
	}
}

func TestXMarkGraphPipeline(t *testing.T) {
	g, rep, err := Graph(XMark(XMarkScale(0.02)))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.DanglingRefs) != 0 {
		t.Errorf("%d dangling references", len(rep.DanglingRefs))
	}
	if rep.ReferenceEdges == 0 {
		t.Error("no reference edges resolved")
	}
	// The characteristic reference paths must exist.
	for _, path := range [][]string{
		{"item", "incategory", "category"},
		{"open_auction", "itemref", "item"},
		{"closed_auction", "seller", "person"},
		{"person", "watches", "watch", "open_auction"},
	} {
		q := make([]graph.LabelID, len(path))
		for i, l := range path {
			q[i] = g.Labels().Lookup(l)
			if q[i] == graph.InvalidLabel {
				t.Fatalf("label %s missing from XMark data", l)
			}
		}
		if res, _ := eval.Data(g, q); len(res) == 0 {
			t.Errorf("path %v has no matches", path)
		}
	}
}

func TestXMarkIsGraphNotTree(t *testing.T) {
	g, _, err := Graph(XMark(XMarkScale(0.02)))
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for n := 0; n < g.NumNodes(); n++ {
		if len(g.Parents(graph.NodeID(n))) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no node has multiple parents; reference edges missing")
	}
}

func TestNASADTDValid(t *testing.T) {
	if err := NASADTD().Validate(); err != nil {
		t.Fatal(err)
	}
	if len(NASADTD().ElementNames()) < 30 {
		t.Errorf("NASA DTD has only %d element types", len(NASADTD().ElementNames()))
	}
}

func TestNASAGeneration(t *testing.T) {
	doc := NASA(NASAConfig{Seed: 7, TargetNodes: 5000})
	n := doc.CountNodes()
	if n < 4000 || n > 12000 {
		t.Errorf("target 5000 produced %d nodes", n)
	}
	g, rep, err := Graph(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.ReferenceEdges == 0 {
		t.Error("NASA data has no reference edges")
	}
	if len(rep.DanglingRefs) != 0 {
		t.Errorf("dangling refs: %v", rep.DanglingRefs[:min(3, len(rep.DanglingRefs))])
	}
}

func TestNASABroaderAndDeeperThanXMark(t *testing.T) {
	// The paper chose NASA because it is broader, deeper and less regular
	// than XMark with more references; verify the generators preserve that.
	xg, xrep, err := Graph(XMark(XMarkScale(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	ng, nrep, err := Graph(NASA(NASAConfig{Seed: 2, TargetNodes: xg.NumNodes()}))
	if err != nil {
		t.Fatal(err)
	}
	xs, ns := xg.ComputeStats(), ng.ComputeStats()
	if ns.MaxDepth <= xs.MaxDepth {
		t.Errorf("NASA depth %d not deeper than XMark %d", ns.MaxDepth, xs.MaxDepth)
	}
	if ns.Labels <= xs.Labels {
		t.Errorf("NASA labels %d not broader than XMark %d", ns.Labels, xs.Labels)
	}
	xRefRate := float64(xrep.ReferenceEdges) / float64(xg.NumNodes())
	nRefRate := float64(nrep.ReferenceEdges) / float64(ng.NumNodes())
	if nRefRate <= xRefRate {
		t.Errorf("NASA reference rate %.4f not higher than XMark %.4f", nRefRate, xRefRate)
	}
}

func TestDTDValidationErrors(t *testing.T) {
	bad := &DTD{Root: "missing", Elements: map[string]*ElementDef{}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined root accepted")
	}
	bad = &DTD{Root: "a", Elements: map[string]*ElementDef{
		"a": seq(one("ghost")),
	}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined child accepted")
	}
	bad = &DTD{Root: "a", Elements: map[string]*ElementDef{
		"a": {Refs: []Ref{{Attr: "xref", Target: "ghost"}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("undefined ref target accepted")
	}
	bad = &DTD{Root: "a", Elements: map[string]*ElementDef{
		"a": {Choice: true},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("empty choice accepted")
	}
}

func TestGenerateMandatoryRecursionFails(t *testing.T) {
	d := &DTD{Root: "a", Elements: map[string]*ElementDef{
		"a": seq(one("a")),
	}}
	if _, err := Generate(d, GenConfig{Seed: 1}); err == nil {
		t.Error("unbounded mandatory recursion accepted")
	}
}

func TestGenerateRespectsBudget(t *testing.T) {
	d := &DTD{Root: "list", Elements: map[string]*ElementDef{
		"list":  seq(plus("entry", 1<<20)),
		"entry": seq(star("sub", 2)),
		"sub":   leaf(),
	}}
	doc, err := Generate(d, GenConfig{Seed: 3, TargetNodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	n := doc.CountNodes()
	if n < 400 || n > 1200 {
		t.Errorf("budget 500 produced %d nodes", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 5, TargetNodes: 2000}
	var a, b bytes.Buffer
	docA, err := Generate(NASADTD(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	docB, err := Generate(NASADTD(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := docA.WriteXML(&a); err != nil {
		t.Fatal(err)
	}
	if err := docB.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("DTD generation is not deterministic")
	}
}

func TestPickBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := pick(rng, 1, 4)
		if v < 1 || v > 4 {
			t.Fatalf("pick out of bounds: %d", v)
		}
	}
	if pick(rng, 3, 3) != 3 {
		t.Error("degenerate pick wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDBLPDTDValid(t *testing.T) {
	if err := DBLPDTD().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDBLPGeneration(t *testing.T) {
	g, rep, err := Graph(DBLP(DBLPConfig{Seed: 5, TargetNodes: 4000}))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.DanglingRefs) != 0 {
		t.Errorf("dangling refs: %d", len(rep.DanglingRefs))
	}
	// DBLP is the citation-dense regime: reference rate above both XMark
	// and NASA.
	xg, xrep, err := Graph(XMark(XMarkScale(0.04)))
	if err != nil {
		t.Fatal(err)
	}
	dRate := float64(rep.ReferenceEdges) / float64(g.NumNodes())
	xRate := float64(xrep.ReferenceEdges) / float64(xg.NumNodes())
	if dRate <= xRate {
		t.Errorf("DBLP ref rate %.4f not above XMark %.4f", dRate, xRate)
	}
	// And the shallow regime: depth below NASA's.
	if g.ComputeStats().MaxDepth > 6 {
		t.Errorf("DBLP depth %d, want shallow (<=6)", g.ComputeStats().MaxDepth)
	}
	// Citation paths resolve.
	q := []graph.LabelID{
		g.Labels().Lookup("cite"),
		g.Labels().Lookup("article"),
	}
	if q[0] == graph.InvalidLabel || q[1] == graph.InvalidLabel {
		t.Fatal("cite/article labels missing")
	}
	if res, _ := eval.Data(g, q); len(res) == 0 {
		t.Error("no cite->article paths")
	}
}

// Property: every generator configuration yields a well-formed document that
// loads into a valid graph with no dangling references.
func TestQuickGeneratorsAlwaysLoad(t *testing.T) {
	f := func(seed int64, which uint8, sz uint8) bool {
		target := 300 + int(sz)*8
		var doc *xmlgraph.Elem
		switch which % 3 {
		case 0:
			cfg := XMarkScale(float64(target) / 100_000)
			cfg.Seed = seed
			doc = XMark(cfg)
		case 1:
			doc = NASA(NASAConfig{Seed: seed, TargetNodes: target})
		default:
			doc = DBLP(DBLPConfig{Seed: seed, TargetNodes: target})
		}
		g, rep, err := Graph(doc)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		return len(rep.DanglingRefs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
