package dkindex

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"dkindex/internal/datagen"
	"dkindex/internal/eval"
)

// TestFullLifecycle drives the whole public API the way a deployment would,
// on real generated XML: load → tune → query → live updates (edges in and
// out, documents in) → observe → optimize → promote → persist → reopen →
// compact, asserting exactness against direct evaluation at every stage.
func TestFullLifecycle(t *testing.T) {
	var doc bytes.Buffer
	if err := datagen.XMark(datagen.XMarkScale(0.05)).WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadXML(&doc, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	randomQueries := func(n int) []string {
		g := idx.Graph()
		out := make([]string, 0, n)
		for len(out) < n {
			node := NodeID(rng.Intn(g.NumNodes()))
			parts := []string{g.LabelName(node)}
			for len(parts) < 2+rng.Intn(3) {
				ch := g.Children(node)
				if len(ch) == 0 {
					break
				}
				node = ch[rng.Intn(len(ch))]
				parts = append(parts, g.LabelName(node))
			}
			if len(parts) >= 2 {
				out = append(out, strings.Join(parts, "."))
			}
		}
		return out
	}

	assertExact := func(stage string, queries []string) {
		t.Helper()
		for _, qs := range queries {
			res, _, err := query(idx, KindPath, qs)
			if err != nil {
				t.Fatalf("%s: %q: %v", stage, qs, err)
			}
			q, err := eval.ParseQuery(idx.Graph().Labels(), qs)
			if err != nil {
				t.Fatal(err)
			}
			truth, _ := eval.Data(idx.Graph(), q)
			if !eval.SameResult(res, truth) {
				t.Fatalf("%s: %q: index %v != truth %v", stage, qs, res, truth)
			}
		}
	}

	// Stage 1: tune from a sampled load, run it exactly.
	if err := idx.Tune(60, 7); err != nil {
		t.Fatal(err)
	}
	queries := randomQueries(20)
	assertExact("tuned", queries)

	// Stage 2: live edges in and out.
	g := idx.Graph()
	for i := 0; i < 30; i++ {
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		if u != v && v != g.Root() {
			if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: u, To: v}); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			w := NodeID(rng.Intn(g.NumNodes()))
			if ch := g.Children(w); len(ch) > 0 {
				if c := ch[rng.Intn(len(ch))]; c != g.Root() {
					if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: w, To: c}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	assertExact("after edge churn", queries)

	// Stage 3: document insertions.
	for i := 0; i < 3; i++ {
		var extra bytes.Buffer
		cfg := datagen.XMarkScale(0.005)
		cfg.Seed = int64(50 + i)
		if err := datagen.XMark(cfg).WriteXML(&extra); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: extra.Bytes()}); err != nil {
			t.Fatal(err)
		}
	}
	assertExact("after inserts", queries)

	// Stage 4: observe a skewed load and self-optimize.
	idx.WatchLoad()
	hot := queries[0]
	for i := 0; i < 10; i++ {
		if _, _, err := query(idx, KindPath, hot); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := query(idx, KindPath, queries[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(Mutation{Op: MutOptimize}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := query(idx, KindPath, hot)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Validations != 0 {
		t.Errorf("hot query validates after Optimize")
	}
	assertExact("after optimize", queries)

	// Stage 5: promote a decayed label explicitly and persist.
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "name", K: 2}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lifecycle.dkx")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range queries[:8] {
		a, ca, err := query(idx, KindPath, qs)
		if err != nil {
			t.Fatal(err)
		}
		b, cb, err := query(reopened, KindPath, qs)
		if err != nil {
			t.Fatal(err)
		}
		if !eval.SameResult(a, b) || ca != cb {
			t.Fatalf("reopened index differs on %q", qs)
		}
	}
	idx = reopened

	// Stage 6: delete a subtree and compact.
	root := idx.Graph().Root()
	kids := idx.Graph().Children(root)
	site := kids[0]
	sections := idx.Graph().Children(site)
	if len(sections) > 1 {
		if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: site, To: sections[0]}); err != nil {
			t.Fatal(err)
		}
		before := idx.Stats().DataNodes
		if _, err := idx.Apply(Mutation{Op: MutCompact}); err != nil {
			t.Fatal(err)
		}
		if idx.Stats().DataNodes == before {
			t.Error("compaction dropped nothing after subtree detachment")
		}
	}
	if err := idx.IG().Validate(); err != nil {
		t.Fatal(err)
	}
	// Queries still exact on the compacted index (fresh query set: old node
	// ids are renumbered).
	assertExact("after compact", randomQueries(10))

	// The summary stays coherent.
	s := idx.Summary()
	if s.DataNodes != idx.Graph().NumNodes() {
		t.Errorf("summary covers %d of %d data nodes", s.DataNodes, idx.Graph().NumNodes())
	}
}
