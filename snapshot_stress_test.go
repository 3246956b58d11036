package dkindex

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dkindex/internal/codec"
	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/graph"
	"dkindex/internal/workload"
)

// TestSnapshotStressConcurrent races lock-free readers against a mutating
// writer (run under -race, as `make ci` does). Readers assert snapshot
// consistency: every query succeeds, generations never go backwards within
// one goroutine, and every path result carries the query's final label when
// resolved against the snapshot that answered it — which would be violated
// if a query ever observed a half-published mutation.
//
// Two more goroutines exercise the copy-on-write contract beside them. A
// holder pins a published snapshot and keeps re-serializing it while at least
// 50 later commits copy-on-write their way past it: its bytes must never
// change. A cloner keeps calling DK().Clone() on whatever is published —
// concurrently with the writer's own clone of the same snapshot — and writes
// through its private clone, which nobody else may see.
func TestSnapshotStressConcurrent(t *testing.T) {
	var doc bytes.Buffer
	if err := datagen.XMark(datagen.XMarkScale(0.02)).WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadXML(bytes.NewReader(doc.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Tune(40, 11); err != nil {
		t.Fatal(err)
	}
	idx.WatchLoad()
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		t.Fatal(err)
	}

	// Fixed query texts, valid across every mutation (label names survive
	// reloads and document grafts; compact is the only id-renumbering op
	// and the writer below does not use it).
	w, err := workload.Generate(idx.Graph(), workload.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	labels := idx.Graph().Labels()
	paths := make([]string, 0, 24)
	for _, q := range w.Queries[:min(24, len(w.Queries))] {
		paths = append(paths, q.Format(labels))
	}
	reqs := make([]Request, 0, len(paths)+4)
	for _, p := range paths {
		reqs = append(reqs, Request{Kind: KindPath, Text: p})
	}
	first := strings.Split(paths[0], ".")
	reqs = append(reqs,
		Request{Kind: KindRPE, Text: first[0] + "//" + first[len(first)-1]},
		Request{Kind: KindRPE, Text: "_." + first[len(first)-1]},
		Request{Kind: KindTwig, Text: first[len(first)-2] + "[" + first[len(first)-1] + "]"},
		Request{Kind: KindPath, Text: paths[0], Limit: 1},
	)

	const (
		readers          = 4
		queriesPerReader = 1000
		writerOps        = 150
	)
	var (
		wg   sync.WaitGroup
		hits atomic.Int64
	)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastGen uint64
			for i := 0; i < queriesPerReader; i++ {
				req := reqs[rng.Intn(len(reqs))]
				res, err := idx.Run(req)
				if err != nil {
					t.Errorf("reader: %s %q: %v", req.Kind, req.Text, err)
					return
				}
				if res.Generation < lastGen {
					t.Errorf("reader: generation went backwards: %d -> %d", lastGen, res.Generation)
					return
				}
				lastGen = res.Generation
				if res.CacheHit {
					hits.Add(1)
				}
				if req.Kind == KindPath {
					want := req.Text[strings.LastIndexByte(req.Text, '.')+1:]
					for _, n := range res.Nodes {
						if got := res.LabelName(n); got != want {
							t.Errorf("reader: %q returned node labeled %q (snapshot torn?)", req.Text, got)
							return
						}
					}
				}
				if res.Total < len(res.Nodes) {
					t.Errorf("reader: total %d < listed %d", res.Total, len(res.Nodes))
					return
				}
			}
		}(int64(100 + r))
	}

	writerDone := make(chan struct{})
	serialize := func(dk *core.DK) []byte {
		var buf bytes.Buffer
		if err := codec.SaveDK(&buf, dk); err != nil {
			t.Errorf("holder: %v", err)
		}
		return buf.Bytes()
	}
	var longHolds atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			held, pinned := idx.DK(), idx.Generation()
			want := serialize(held)
			for idx.Generation() < pinned+50 {
				select {
				case <-writerDone:
					return
				default:
				}
				if !bytes.Equal(serialize(held), want) {
					t.Errorf("holder: snapshot pinned at generation %d changed by generation %d", pinned, idx.Generation())
					return
				}
			}
			if !bytes.Equal(serialize(held), want) {
				t.Errorf("holder: snapshot pinned at generation %d changed after 50 commits", pinned)
				return
			}
			if err := held.IG.Validate(); err != nil {
				t.Errorf("holder: snapshot pinned at generation %d: %v", pinned, err)
				return
			}
			longHolds.Add(1)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; ; i++ {
			select {
			case <-writerDone:
				return
			default:
			}
			c := idx.DK().Clone()
			n := c.IG.Data().NumNodes()
			c.AddEdge(NodeID(rng.Intn(n)), NodeID(1+rng.Intn(n-1)))
			if i%16 == 0 {
				if err := c.IG.Validate(); err != nil {
					t.Errorf("cloner: %v", err)
					return
				}
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		rng := rand.New(rand.NewSource(7))
		genDoc := `<site><regions><namerica><item><name/></item></namerica></regions></site>`
		for i := 0; i < writerOps; i++ {
			g := idx.Graph()
			switch i % 7 {
			case 0, 1:
				u := NodeID(rng.Intn(g.NumNodes()))
				v := NodeID(rng.Intn(g.NumNodes()))
				if u != v && v != g.Root() {
					if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: u, To: v}); err != nil {
						t.Errorf("writer: AddEdge: %v", err)
						return
					}
				}
			case 2:
				u := NodeID(rng.Intn(g.NumNodes()))
				if ch := g.Children(u); len(ch) > 0 {
					if v := ch[rng.Intn(len(ch))]; v != g.Root() {
						if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: u, To: v}); err != nil {
							t.Errorf("writer: RemoveEdge: %v", err)
							return
						}
					}
				}
			case 3:
				name := g.Labels().Name(graph.LabelID(rng.Intn(g.Labels().Len())))
				if _, err := idx.Apply(Mutation{Op: MutPromote, Label: name, K: 1 + rng.Intn(3)}); err != nil {
					t.Errorf("writer: PromoteLabel: %v", err)
					return
				}
			case 4:
				if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte(genDoc)}); err != nil {
					t.Errorf("writer: AddDocument: %v", err)
					return
				}
			case 5:
				// The recorder may have been reset by a racing Reload;
				// an empty-load refusal is fine, anything else is not.
				if _, err := idx.Apply(Mutation{Op: MutOptimize}); err != nil &&
					!strings.Contains(err.Error(), "no observed load") {
					t.Errorf("writer: Optimize: %v", err)
					return
				}
			case 6:
				if err := idx.Reload(bytes.NewReader(saved.Bytes())); err != nil {
					t.Errorf("writer: Reload: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no cache hits across the whole stress run")
	}
	if gen := idx.Generation(); gen == 0 {
		t.Error("writer published no snapshots")
	}
	if longHolds.Load() == 0 {
		t.Error("no snapshot was held across 50 commits")
	}
	if err := idx.Audit(2); err != nil {
		t.Fatalf("final audit: %v", err)
	}
}
