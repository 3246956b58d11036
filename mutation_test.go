package dkindex

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dkindex/internal/datagen"
	"dkindex/internal/faultfs"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
)

// TestApplySequencesAndWatermark checks the pipeline's bookkeeping on the
// direct (unbatched) path: contiguous sequence numbers, a watermark that
// tracks them, and one generation bump per mutation.
func TestApplySequencesAndWatermark(t *testing.T) {
	idx := open(t)
	gen0 := idx.Stats().Generation
	muts := []Mutation{
		{Op: MutPromote, Label: "title", K: 2},
		{Op: MutAddEdge, From: nodeWithLabel(t, idx, "director", 0), To: nodeWithLabel(t, idx, "title", 1)},
		{Op: MutDemote, Reqs: map[string]int{"title": 1, "name": 1}},
	}
	for i, m := range muts {
		ack, err := idx.Apply(m)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if want := uint64(i + 1); ack.Seq != want {
			t.Errorf("apply %d: seq %d, want %d", i, ack.Seq, want)
		}
		if ack.Watermark != ack.Seq {
			t.Errorf("apply %d: watermark %d != seq %d", i, ack.Watermark, ack.Seq)
		}
		if want := gen0 + uint64(i+1); ack.Generation != want {
			t.Errorf("apply %d: generation %d, want %d", i, ack.Generation, want)
		}
	}
	if idx.LastSeq() != 3 || idx.Watermark() != 3 {
		t.Errorf("LastSeq/Watermark = %d/%d, want 3/3", idx.LastSeq(), idx.Watermark())
	}
}

// TestApplyPrepareErrors checks submit-time validation: bad mutations are
// rejected before entering the pipeline, consuming no sequence number.
func TestApplyPrepareErrors(t *testing.T) {
	idx := open(t)
	cases := []Mutation{
		{Op: "frobnicate"},
		{Op: MutPromote, K: 1}, // missing label
		{Op: MutAddDocument, Doc: []byte("<unclosed")},
	}
	for i, m := range cases {
		if _, err := idx.Apply(m); err == nil {
			t.Errorf("case %d (%q): bad mutation accepted", i, m.Op)
		}
	}
	if idx.LastSeq() != 0 {
		t.Errorf("rejected mutations consumed sequence numbers: LastSeq=%d", idx.LastSeq())
	}
	if _, err := idx.ApplyBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestApplyBatchOneGeneration checks the tentpole semantics: a batch is one
// composite application — one snapshot swap, so one generation bump — with
// contiguous sequence numbers and a watermark covering the whole batch.
func TestApplyBatchOneGeneration(t *testing.T) {
	idx := open(t)
	gen0 := idx.Stats().Generation
	f, to := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "title", 1)
	acks, err := idx.ApplyBatch([]Mutation{
		{Op: MutAddEdge, From: f, To: to},
		{Op: MutPromote, Label: "movie", K: 1},
		{Op: MutRemoveEdge, From: f, To: to},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if a.Err != nil {
			t.Fatalf("member %d rejected: %v", i, a.Err)
		}
		if want := uint64(i + 1); a.Seq != want {
			t.Errorf("member %d: seq %d, want %d", i, a.Seq, want)
		}
		if a.Watermark != 3 {
			t.Errorf("member %d: watermark %d, want 3", i, a.Watermark)
		}
		if a.Generation != gen0+1 {
			t.Errorf("member %d: generation %d, want %d", i, a.Generation, gen0+1)
		}
	}
	if gen := idx.Stats().Generation; gen != gen0+1 {
		t.Errorf("batch bumped generation to %d, want %d (exactly one swap)", gen, gen0+1)
	}
}

// TestApplyBatchPartialRejection checks that members apply independently: a
// bad member is rejected in place, the rest commit, and the watermark still
// advances over the rejected sequence number.
func TestApplyBatchPartialRejection(t *testing.T) {
	idx := open(t)
	gen0 := idx.Stats().Generation
	acks, err := idx.ApplyBatch([]Mutation{
		{Op: MutPromote, Label: "title", K: 2},
		{Op: MutAddEdge, From: 0, To: 1 << 30}, // out of range
		{Op: MutPromote, Label: "no-such-label", K: 1},
		{Op: MutPromote, Label: "name", K: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acks[0].Err != nil || acks[3].Err != nil {
		t.Fatalf("valid members rejected: %v / %v", acks[0].Err, acks[3].Err)
	}
	if acks[1].Err == nil || acks[2].Err == nil {
		t.Fatal("invalid members accepted")
	}
	if acks[1].Generation != 0 || acks[2].Generation != 0 {
		t.Error("rejected members report a publishing generation")
	}
	if idx.Watermark() != 4 {
		t.Errorf("watermark %d, want 4 (rejections settle too)", idx.Watermark())
	}
	if gen := idx.Stats().Generation; gen != gen0+1 {
		t.Errorf("generation %d, want %d", gen, gen0+1)
	}
}

// TestApplyBatchAllRejected checks that a batch with no surviving members
// publishes nothing: the generation is unchanged but every member settles.
func TestApplyBatchAllRejected(t *testing.T) {
	idx := open(t)
	gen0 := idx.Stats().Generation
	acks, err := idx.ApplyBatch([]Mutation{
		{Op: MutAddEdge, From: -1, To: 0},
		{Op: MutPromote, Label: "nope", K: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if a.Err == nil {
			t.Fatalf("member %d accepted", i)
		}
	}
	if gen := idx.Stats().Generation; gen != gen0 {
		t.Errorf("empty commit bumped generation %d -> %d", gen0, gen)
	}
	if idx.Watermark() != 2 {
		t.Errorf("watermark %d, want 2", idx.Watermark())
	}
}

// TestApplyResultPayloads checks the op-specific ack payloads: document
// mappings and mined requirements.
func TestApplyResultPayloads(t *testing.T) {
	idx := open(t)
	ack, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte(extraDocXML)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Mapping) == 0 {
		t.Error("AddDocument ack carries no mapping")
	}

	if _, err := idx.Apply(Mutation{Op: MutOptimize}); err == nil {
		t.Error("optimize without observed load accepted")
	}
	idx.WatchLoad()
	if _, _, err := query(idx, KindPath, "director.movie.title"); err != nil {
		t.Fatal(err)
	}
	ack, err = idx.Apply(Mutation{Op: MutOptimize})
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Mined) == 0 {
		t.Error("Optimize ack carries no mined requirements")
	}
}

// TestBatchingCoalesces checks the batcher's group commit: mutations queued
// while the committer is blocked flush as one group — observable as a
// batch_commit lifecycle event — and every ack settles with the final
// watermark.
func TestBatchingCoalesces(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)
	if err := idx.StartBatching(BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := idx.StartBatching(BatchOptions{}); err == nil {
		t.Fatal("double arm accepted")
	}
	if !idx.Batching() {
		t.Fatal("Batching() false while armed")
	}

	// Hold the writer mutex so the committer cannot flush, queue a window of
	// mutations, then release: everything queued behind the first take must
	// coalesce into one group commit.
	f, to := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "title", 1)
	idx.mu.Lock()
	var acks []Ack
	for i := 0; i < 8; i++ {
		m := Mutation{Op: MutAddEdge, From: f, To: to}
		if i%2 == 1 {
			m = Mutation{Op: MutRemoveEdge, From: f, To: to}
		}
		a, err := idx.ApplyAsync(m)
		if err != nil {
			idx.mu.Unlock()
			t.Fatal(err)
		}
		acks = append(acks, a)
	}
	idx.mu.Unlock()
	idx.StopBatching()

	if idx.Batching() {
		t.Error("Batching() true after stop")
	}
	if idx.Watermark() != idx.LastSeq() {
		t.Errorf("drain left watermark %d behind LastSeq %d", idx.Watermark(), idx.LastSeq())
	}
	for i, a := range acks {
		if want := uint64(i + 1); a.Seq != want {
			t.Errorf("ack %d: seq %d, want %d (queue order is sequence order)", i, a.Seq, want)
		}
	}
	if n := eventTypes(o.Events.Recent(0))[obs.EventBatchCommit]; n == 0 {
		t.Error("no batch_commit event: the window did not coalesce")
	}
	// Stop is idempotent and Apply still works unbatched.
	idx.StopBatching()
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyAsyncSettles checks the async contract: the ack carries the
// assigned sequence number immediately, and the watermark reaches it once
// the group commit lands.
func TestApplyAsyncSettles(t *testing.T) {
	idx := open(t)
	if err := idx.StartBatching(BatchOptions{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer idx.StopBatching()
	ack, err := idx.ApplyAsync(Mutation{Op: MutPromote, Label: "title", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq == 0 {
		t.Fatal("async ack carries no sequence number")
	}
	deadline := time.Now().Add(5 * time.Second)
	for idx.Watermark() < ack.Seq {
		if time.Now().After(deadline) {
			t.Fatalf("watermark stuck at %d, waiting for %d", idx.Watermark(), ack.Seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentApplyUnderBatching drives parallel writers through an armed
// batcher and checks global invariants: unique contiguous sequence numbers,
// all synchronous acks settled, and the final drain leaves nothing behind.
func TestConcurrentApplyUnderBatching(t *testing.T) {
	idx := open(t)
	if err := idx.StartBatching(BatchOptions{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	f, to := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "title", 1)
	const writers, perWriter = 8, 10
	seqs := make(chan uint64, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m := Mutation{Op: MutAddEdge, From: f, To: to}
				if (w+i)%2 == 1 {
					m = Mutation{Op: MutRemoveEdge, From: f, To: to}
				}
				ack, err := idx.Apply(m)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if ack.Watermark < ack.Seq {
					t.Errorf("writer %d: acked watermark %d below own seq %d", w, ack.Watermark, ack.Seq)
					return
				}
				seqs <- ack.Seq
			}
		}(w)
	}
	wg.Wait()
	idx.StopBatching()
	close(seqs)
	seen := make(map[uint64]bool)
	for s := range seqs {
		if seen[s] {
			t.Fatalf("sequence %d assigned twice", s)
		}
		seen[s] = true
	}
	if len(seen) != writers*perWriter || idx.LastSeq() != uint64(writers*perWriter) {
		t.Fatalf("%d unique seqs, LastSeq %d, want %d", len(seen), idx.LastSeq(), writers*perWriter)
	}
	if idx.Watermark() != idx.LastSeq() {
		t.Errorf("watermark %d != LastSeq %d after drain", idx.Watermark(), idx.LastSeq())
	}
}

// TestGroupCommitSurvivesRecovery checks the WAL half of the tentpole: an
// ApplyBatch lands as one group frame whose replay reproduces the batch
// exactly.
func TestGroupCommitSurvivesRecovery(t *testing.T) {
	fs := faultfs.New()
	idx, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CreateStore("store", idx, &StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f, to := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "title", 1)
	acks, err := idx.ApplyBatch([]Mutation{
		{Op: MutAddEdge, From: f, To: to},
		{Op: MutPromote, Label: "movie", K: 1},
		{Op: MutRemoveEdge, From: f, To: to},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if a.Err != nil {
			t.Fatalf("member %d rejected: %v", i, a.Err)
		}
	}
	want := fingerprint(t, idx)

	fs.Crash()
	fs.Reset()
	st2, rep := recoverStore(t, fs, "store")
	defer st2.Close()
	if got := fingerprint(t, st2.Index()); got != want {
		t.Fatal("recovered state differs from acknowledged batch")
	}
	if rep.Replayed != 3 {
		t.Errorf("replayed %d records, want 3 (group frame expands)", rep.Replayed)
	}
}

// TestRejectedDocumentLeavesBatchCloneUntouched is the regression test for a
// taint in core.AddSubgraph: a document whose sub-index root class is not a
// singleton (a nested ROOT element) used to graft its nodes and intern its
// labels before being rejected, so the batch's surviving members published a
// graph with uncovered nodes — which a reopened store, replaying only the
// logged survivor, did not have.
func TestRejectedDocumentLeavesBatchCloneUntouched(t *testing.T) {
	fs := faultfs.New()
	idx, err := LoadXMLString(`<site><a><b/></a><a><b/></a></site>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CreateStore("store", idx, &StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := idx.Stats()
	acks, err := idx.ApplyBatch([]Mutation{
		{Op: MutAddDocument, Doc: []byte(`<ROOT><x/></ROOT>`)},
		{Op: MutAddEdge, From: 1, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acks[0].Err == nil {
		t.Fatal("document with a nested ROOT element accepted")
	}
	if acks[1].Err != nil {
		t.Fatalf("edge member rejected: %v", acks[1].Err)
	}
	if err := idx.IG().Validate(); err != nil {
		t.Fatalf("published snapshot invalid: %v", err)
	}
	if err := idx.Audit(3); err != nil {
		t.Fatalf("audit: %v", err)
	}
	want := before
	want.DataEdges++
	want.Generation++
	got := idx.Stats()
	want.IndexEdges = got.IndexEdges // the new data edge may or may not be a new index edge
	if got != want {
		t.Errorf("stats %+v, want %+v (only the edge may show)", got, want)
	}
	if l := idx.Graph().Labels().Lookup("x"); l != graph.InvalidLabel {
		t.Errorf("rejected document interned label x as %d", l)
	}

	live := fingerprint(t, idx)
	fs.Crash()
	fs.Reset()
	st2, _ := recoverStore(t, fs, "store")
	defer st2.Close()
	if got := fingerprint(t, st2.Index()); got != live {
		t.Error("reopened store disagrees with the live index")
	}
}

// TestDocumentBatchEqualsItsMembers runs the benchmark's write mix on XMark —
// edge batches, then eight documents — twice: the documents as one ApplyBatch
// (the live path: one clone, Algorithm 3 grafting onto it eight times) and as
// eight Applies (what crash recovery replays a group frame into). The two
// indexes must save to the same bytes and hand out the same node ids, round
// after round; the first document of a round follows edge updates, so its
// refinement merges index nodes and takes the materialising branch.
func TestDocumentBatchEqualsItsMembers(t *testing.T) {
	ds, batched := tunedXMark(t, 0.05)
	_, singly := tunedXMark(t, 0.05)
	edges, err := ds.RandomEdges(24, 1)
	if err != nil {
		t.Fatal(err)
	}
	shrank := 0
	for round := 0; round < 3; round++ {
		for _, e := range edges[8*round : 8*(round+1)] {
			m := Mutation{Op: MutAddEdge, From: e[0], To: e[1]}
			mustApply(t, batched, m)
			mustApply(t, singly, m)
		}
		docs := make([]Mutation, 8)
		for i := range docs {
			docs[i] = Mutation{Op: MutAddDocument, Doc: auctionFragment(t, 8*round+i)}
		}
		before := batched.Stats().IndexNodes
		acks, err := batched.ApplyBatch(docs)
		if err != nil {
			t.Fatal(err)
		}
		if batched.Stats().IndexNodes < before {
			shrank++
		}
		for i, m := range docs {
			if acks[i].Err != nil {
				t.Fatal(acks[i].Err)
			}
			ack, err := singly.Apply(m)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ack.Mapping, acks[i].Mapping) {
				t.Fatalf("round %d document %d: mapping %v in the batch, %v alone", round, i, acks[i].Mapping, ack.Mapping)
			}
		}
		if fingerprint(t, batched) != fingerprint(t, singly) {
			t.Fatalf("round %d: the batch and its members applied singly disagree", round)
		}
	}
	if shrank == 0 {
		t.Error("no round's documents merged index nodes; the scenario no longer reaches the materialising branch")
	}
	if err := batched.IG().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := batched.Audit(3); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedStoreDurability drives concurrent writers through an armed
// batcher over a store and checks that recovery reproduces the final
// acknowledged state.
func TestBatchedStoreDurability(t *testing.T) {
	fs := faultfs.New()
	idx, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CreateStore("store", idx, &StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := idx.StartBatching(BatchOptions{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	f, to := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "title", 1)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := Mutation{Op: MutAddEdge, From: f, To: to}
			if w%2 == 1 {
				m = Mutation{Op: MutPromote, Label: "title", K: 1 + w%3}
			}
			if _, err := idx.Apply(m); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	idx.StopBatching()
	want := fingerprint(t, idx)

	fs.Crash()
	fs.Reset()
	st2, _ := recoverStore(t, fs, "store")
	defer st2.Close()
	if got := fingerprint(t, st2.Index()); got != want {
		t.Fatal("recovered state differs from acknowledged batched writes")
	}
}

// TestApplyBatchStressConcurrent cycles concurrent ApplyBatch writers
// against lock-free snapshot readers and watermark pollers under -race (as
// `make stress` does). Readers assert generation monotonicity, pollers
// assert the watermark is monotonic and never passes the last assigned
// sequence number, and the final drain must settle everything.
func TestApplyBatchStressConcurrent(t *testing.T) {
	var doc bytes.Buffer
	if err := datagen.XMark(datagen.XMarkScale(0.02)).WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadXML(&doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.StartBatching(BatchOptions{MaxBatch: 32}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup

	// Watermark pollers: the watermark never regresses and never overtakes
	// the last assigned sequence number (watermark read first — LastSeq only
	// grows, so a stale LastSeq can only under-report).
	for p := 0; p < 2; p++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := idx.Watermark()
				l := idx.LastSeq()
				if w < last {
					t.Errorf("poller: watermark regressed %d -> %d", last, w)
					return
				}
				if w > l {
					t.Errorf("poller: watermark %d passed LastSeq %d", w, l)
					return
				}
				last = w
			}
		}()
	}

	// Readers: queries succeed and generations are monotone per goroutine.
	for r := 0; r < 3; r++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := idx.Run(Request{Kind: KindRPE, Text: "site//item"})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if res.Generation < lastGen {
					t.Errorf("reader: generation regressed %d -> %d", lastGen, res.Generation)
					return
				}
				lastGen = res.Generation
			}
		}()
	}

	const writers, opsPerWriter = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWriter; i++ {
				g := idx.Graph()
				switch i % 3 {
				case 0: // batch of edge additions
					ms := make([]Mutation, 0, 3)
					for len(ms) < 3 {
						u := NodeID(rng.Intn(g.NumNodes()))
						v := NodeID(rng.Intn(g.NumNodes()))
						if u == v || v == g.Root() {
							continue
						}
						ms = append(ms, Mutation{Op: MutAddEdge, From: u, To: v})
					}
					acks, err := idx.ApplyBatch(ms)
					if err != nil {
						t.Errorf("writer: ApplyBatch: %v", err)
						return
					}
					for _, a := range acks {
						if a.Err != nil {
							t.Errorf("writer: batch member: %v", a.Err)
							return
						}
					}
				case 1: // async promote
					name := g.Labels().Name(graph.LabelID(rng.Intn(g.Labels().Len())))
					if _, err := idx.ApplyAsync(Mutation{Op: MutPromote, Label: name, K: 1 + rng.Intn(2)}); err != nil {
						t.Errorf("writer: ApplyAsync: %v", err)
						return
					}
				case 2: // synchronous single edge removal
					u := NodeID(rng.Intn(g.NumNodes()))
					if ch := g.Children(u); len(ch) > 0 {
						if v := ch[rng.Intn(len(ch))]; v != g.Root() {
							if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: u, To: v}); err != nil {
								t.Errorf("writer: Apply: %v", err)
								return
							}
						}
					}
				}
			}
		}(int64(1000 + w))
	}
	wg.Wait()
	idx.StopBatching()
	close(stop)
	aux.Wait()

	if idx.Watermark() != idx.LastSeq() {
		t.Errorf("drain left watermark %d behind LastSeq %d", idx.Watermark(), idx.LastSeq())
	}
	if idx.Generation() == 0 {
		t.Error("writers published no snapshots")
	}
	if err := idx.Audit(2); err != nil {
		t.Fatalf("final audit: %v", err)
	}
}
