package dkindex

import (
	"bytes"
	"math/rand"
	"testing"

	"dkindex/internal/datagen"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
)

// TestStressLongHaul subjects one index instance to thousands of interleaved
// operations — queries, edge additions and removals, document insertions,
// promotions, demotions, optimizations — with periodic structural validation
// and semantic audits. Skipped under -short; it is the closest thing to a
// soak test the suite has.
func TestStressLongHaul(t *testing.T) {
	if testing.Short() {
		t.Skip("long-haul stress test; run without -short")
	}
	var doc bytes.Buffer
	if err := datagen.XMark(datagen.XMarkScale(0.1)).WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadXML(&doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Tune(80, 3); err != nil {
		t.Fatal(err)
	}
	idx.SetAutoPromote(64)

	rng := rand.New(rand.NewSource(2026))
	randomQuery := func() eval.Query {
		g := idx.Graph()
		n := NodeID(rng.Intn(g.NumNodes()))
		q := eval.Query{g.Label(n)}
		for len(q) < 2+rng.Intn(4) {
			ch := g.Children(n)
			if len(ch) == 0 {
				break
			}
			n = ch[rng.Intn(len(ch))]
			q = append(q, g.Label(n))
		}
		return q
	}

	const ops = 4000
	queries, updates := 0, 0
	for i := 0; i < ops; i++ {
		g := idx.Graph()
		switch r := rng.Intn(100); {
		case r < 70: // query, checked against truth
			q := randomQuery()
			res, _, err := query(idx, KindPath, q.Format(g.Labels()))
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			truth, _ := eval.Data(g, q)
			if !eval.SameResult(res, truth) {
				t.Fatalf("op %d: query %s wrong", i, q.Format(g.Labels()))
			}
			queries++
		case r < 85: // edge addition
			u := NodeID(rng.Intn(g.NumNodes()))
			v := NodeID(rng.Intn(g.NumNodes()))
			if u != v && v != g.Root() {
				if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: u, To: v}); err != nil {
					t.Fatal(err)
				}
				updates++
			}
		case r < 93: // edge removal
			u := NodeID(rng.Intn(g.NumNodes()))
			if ch := g.Children(u); len(ch) > 0 {
				if v := ch[rng.Intn(len(ch))]; v != g.Root() {
					if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: u, To: v}); err != nil {
						t.Fatal(err)
					}
					updates++
				}
			}
		case r < 96: // document insertion
			var extra bytes.Buffer
			cfg := datagen.XMarkScale(0.002)
			cfg.Seed = int64(i)
			if err := datagen.XMark(cfg).WriteXML(&extra); err != nil {
				t.Fatal(err)
			}
			if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: extra.Bytes()}); err != nil {
				t.Fatal(err)
			}
			updates++
		case r < 98: // promote a random label
			name := g.Labels().Name(graph.LabelID(rng.Intn(g.Labels().Len())))
			if _, err := idx.Apply(Mutation{Op: MutPromote, Label: name, K: 1 + rng.Intn(3)}); err != nil {
				// Unknown labels cannot happen here; any error is real.
				t.Fatal(err)
			}
		default: // demote everything a notch
			mustApply(t, idx, Mutation{Op: MutDemote, Reqs: map[string]int{}})
		}

		if i%500 == 499 {
			if err := idx.Audit(2); err != nil {
				t.Fatalf("audit failed after op %d: %v", i, err)
			}
		}
	}
	if err := idx.Audit(3); err != nil {
		t.Fatalf("final audit: %v", err)
	}
	t.Logf("stress: %d ops (%d queries, %d updates); final: %d data nodes, %d index nodes",
		ops, queries, updates, idx.Stats().DataNodes, idx.Stats().IndexNodes)
}
