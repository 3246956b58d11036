package dkindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/faultfs"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
	"dkindex/internal/oracle"
)

// TestApplySequencesAndWatermark checks the pipeline's bookkeeping for one
// synchronous writer: contiguous sequence numbers, a watermark that tracks
// them, and one generation bump per mutation.
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

// TestBatchingCoalesces checks natural group commit: mutations queued while
// the writer mutex is held commit, once it is released, as one group — one
// commit and one batch_commit event spanning their sequence numbers in order
// — and every ack settles with the final watermark.
func TestBatchingCoalesces(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)
	commits := o.Counter(obs.BatchCommits)
	c0 := commits.Value()

	// The first submitter becomes the committer and blocks on the held mutex;
	// everything queued behind it must coalesce into its group.
	f, to := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "title", 1)
	idx.mu.Lock()
	var acks []Ack
	for i := 0; i < 8; i++ {
		m := Mutation{Op: MutAddEdge, From: f, To: to}
		if i%2 == 1 {
			m = Mutation{Op: MutRemoveEdge, From: f, To: to}
		}
		a, err := idx.ApplyBatchAsync([]Mutation{m})
		if err == nil {
			err = a[0].Err
		}
		if err != nil {
			idx.mu.Unlock()
			t.Fatal(err)
		}
		acks = append(acks, a[0])
	}
	idx.mu.Unlock()
	settle(t, idx)

	for i, a := range acks {
		if want := uint64(i + 1); a.Seq != want {
			t.Errorf("ack %d: seq %d, want %d (queue order is sequence order)", i, a.Seq, want)
		}
	}
	if got := commits.Value() - c0; got != 1 {
		t.Errorf("%d commits, want 1: the queue did not coalesce", got)
	}
	if got := batchCommits(o); !slices.Equal(got, []string{"8 applied, 0 rejected, seq 1..8"}) {
		t.Errorf("batch_commit events %q, want one over seq 1..8", got)
	}
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 1}); err != nil {
		t.Fatal(err)
	}
}

// batchCommits lists the details of the retained batch_commit events.
func batchCommits(o *obs.Observer) []string {
	var out []string
	for _, e := range o.Events.Recent(0) {
		if e.Type == obs.EventBatchCommit {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestGroupCommitBounds checks how a queue is cut into group commits: whole
// client batches in sequence order, at most maxBatch mutations to a group,
// and a client batch larger than that committed alone rather than split.
func TestGroupCommitBounds(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)
	f, to := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "title", 1)
	edge := func(i int) Mutation {
		if i%2 == 1 {
			return Mutation{Op: MutRemoveEdge, From: f, To: to}
		}
		return Mutation{Op: MutAddEdge, From: f, To: to}
	}
	big := make([]Mutation, 200)
	for i := range big {
		big[i] = edge(i)
	}

	idx.mu.Lock()
	_, err := idx.ApplyBatchAsync([]Mutation{edge(0)}) // seq 1: the committer, blocked
	if err == nil {
		_, err = idx.ApplyBatchAsync(big) // seq 2..201
	}
	for i := 0; err == nil && i < maxBatch+2; i++ {
		_, err = idx.ApplyBatchAsync([]Mutation{edge(i + 1)}) // seq 202..331
	}
	idx.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	settle(t, idx)

	want := []string{
		"200 applied, 0 rejected, seq 2..201",
		"128 applied, 0 rejected, seq 202..329",
		"2 applied, 0 rejected, seq 330..331",
	}
	if got := batchCommits(o); !slices.Equal(got, want) {
		t.Errorf("batch_commit events\n got %q\nwant %q", got, want)
	}
	if idx.Watermark() != 331 {
		t.Errorf("watermark %d, want 331", idx.Watermark())
	}
}

// TestQueueStaysBoundedUnderBacklog keeps the write queue from ever emptying
// — a client batch arrives while each group commits, as when two groups of
// writers alternate — and requires its backing array to stay as small as the
// backlog: the committer never gives its role up, so consumed entries must
// not pile up in front of the pending ones.
func TestQueueStaysBoundedUnderBacklog(t *testing.T) {
	var b batcher
	b.idle.L = &b.mu
	var seq atomic.Uint64
	// Three batches of more than maxBatch/2 mutations, reused in turn: no two
	// share a group, and at most two are queued at once.
	var batches [3][]*preparedMutation
	for i := range batches {
		for range maxBatch/2 + 1 {
			batches[i] = append(batches[i], &preparedMutation{})
		}
	}
	if !b.push(batches[0], &seq) {
		t.Fatal("the first submitter did not become the committer")
	}
	const groups = 10000
	for i := range groups {
		if b.push(batches[(i+1)%3], &seq) {
			t.Fatalf("group %d: the queue emptied and a second committer was named", i)
		}
		g := b.next()
		if want := batches[i%3]; len(g) != len(want) || g[0] != want[0] || g[0].seq != uint64(i*len(want)+1) {
			t.Fatalf("group %d: %d mutations from seq %d, want batch %d alone", i, len(g), g[0].seq, i%3)
		}
	}
	if c := cap(b.queue); c > 8 {
		t.Errorf("queue capacity %d after %d groups with a backlog of one batch", c, groups)
	}
}

// TestApplyAsyncSettles checks the async contract of ApplyBatchAsync: the ack
// carries the assigned sequence number before the commit runs, and the
// watermark reaches it once the commit lands — also for a member the commit
// rejects, which counts as rejected and publishes nothing.
func TestApplyAsyncSettles(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)
	rejected := o.Counter(obs.BatchRejected)
	gen := idx.Generation()
	// applyAsync submits m alone and returns its ack.
	applyAsync := func(m Mutation) (Ack, error) {
		acks, err := idx.ApplyBatchAsync([]Mutation{m})
		if err != nil {
			return Ack{}, err
		}
		return acks[0], acks[0].Err
	}

	idx.mu.Lock()
	ack, err := applyAsync(Mutation{Op: MutPromote, Label: "title", K: 2})
	if err == nil && (ack.Seq != 1 || ack.Watermark != 0 || idx.Watermark() != 0 || idx.Generation() != gen) {
		err = fmt.Errorf("ack %+v, watermark %d, generation %d: committed before the writer mutex was free",
			ack, idx.Watermark(), idx.Generation())
	}
	idx.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	settle(t, idx)
	if idx.Watermark() < ack.Seq || idx.Generation() != gen+1 {
		t.Fatalf("after settling: watermark %d, generation %d; want >= %d and %d", idx.Watermark(), idx.Generation(), ack.Seq, gen+1)
	}

	r0 := rejected.Value()
	ack, err = applyAsync(Mutation{Op: MutPromote, Label: "no-such-label", K: 1})
	if err != nil {
		t.Fatalf("rejection surfaced at acceptance: %v", err)
	}
	settle(t, idx)
	if idx.Watermark() < ack.Seq {
		t.Errorf("rejected member: watermark %d below its seq %d", idx.Watermark(), ack.Seq)
	}
	if got := rejected.Value() - r0; got != 1 {
		t.Errorf("%s moved by %d, want 1", obs.BatchRejected.Name, got)
	}
	if idx.Generation() != gen+1 {
		t.Errorf("rejected member moved the generation to %d", idx.Generation())
	}
}

// TestConcurrentApplyUnderBatching drives parallel writers through the
// pipeline and checks global invariants: unique contiguous sequence numbers,
// all synchronous acks settled, and nothing left behind.
func TestConcurrentApplyUnderBatching(t *testing.T) {
	idx := open(t)
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
		t.Errorf("watermark %d != LastSeq %d once every writer returned", idx.Watermark(), idx.LastSeq())
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
		t.Errorf("replayed %d records, want 3 (the group frame's members, in one commit)", rep.Replayed)
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

// TestDocumentBatchEqualsFreshBuild holds a commit of eight documents, which
// runs Algorithm 3 once for all eight, to Theorem 2 on the load-tuned XMark
// index: with no edge update to decay it, the index the run grafts onto is
// the D(k)-index of its data, so refining it together with the documents'
// sub-index must give the D(k)-index of the grown data — what core.Build
// makes of the grown data graph from scratch, node for node up to
// numbering. The acks' mappings must be those adding the documents one by
// one gives.
func TestDocumentBatchEqualsFreshBuild(t *testing.T) {
	_, batched := tunedXMark(t, 0.05)
	_, singly := tunedXMark(t, 0.05)
	for round := 0; round < 3; round++ {
		docs := make([]Mutation, 8)
		for i := range docs {
			docs[i] = Mutation{Op: MutAddDocument, Doc: auctionFragment(t, 8*round+i)}
		}
		acks, err := batched.ApplyBatch(docs)
		if err != nil {
			t.Fatal(err)
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
		dk := batched.DK()
		fresh := core.Build(dk.IG.Data().Clone(), dk.LabelReqs)
		if diff := oracle.SameIndex(dk.IG, fresh.IG); diff != "" {
			t.Fatalf("round %d: the batch's index is not the fresh build of its data: %s", round, diff)
		}
	}
	if err := batched.IG().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := batched.Audit(3); err != nil {
		t.Fatal(err)
	}
}

// TestDocumentRunSkipsTheRejected: a batch of four documents whose second
// nests a ROOT element commits the other three as one run of Algorithm 3 —
// one build, and one index size before and after for all three — and their
// mappings and interned label ids are those the three applied singly get.
func TestDocumentRunSkipsTheRejected(t *testing.T) {
	docs := []Mutation{
		{Op: MutAddDocument, Doc: []byte(`<movieDB><movie><title/></movie></movieDB>`)},
		{Op: MutAddDocument, Doc: []byte(`<ROOT><movie><title/></movie></ROOT>`)},
		{Op: MutAddDocument, Doc: []byte(`<movieDB><series><episode><title/></episode></series></movieDB>`)},
		{Op: MutAddDocument, Doc: []byte(`<movieDB><series><title/></series><movie/></movieDB>`)},
	}
	batched, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	singly, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	batched.Observe(o)
	acks, err := batched.ApplyBatch(docs)
	if err != nil {
		t.Fatal(err)
	}
	if acks[1].Err == nil {
		t.Fatal("document with a nested ROOT element accepted")
	}
	for _, i := range []int{0, 2, 3} {
		if acks[i].Err != nil {
			t.Fatalf("document %d rejected: %v", i, acks[i].Err)
		}
		ack, err := singly.Apply(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ack.Mapping, acks[i].Mapping) {
			t.Fatalf("document %d: mapping %v in the batch, %v alone", i, acks[i].Mapping, ack.Mapping)
		}
	}
	got, want := batched.Graph().Labels(), singly.Graph().Labels()
	if got.Len() != want.Len() {
		t.Fatalf("the batch interned %d labels, the accepted documents alone %d", got.Len(), want.Len())
	}
	for l := 0; l < want.Len(); l++ {
		if name := want.Name(graph.LabelID(l)); got.Lookup(name) != graph.LabelID(l) {
			t.Errorf("label %q is %d in the batch, %d applied singly", name, got.Lookup(name), l)
		}
	}
	var added []obs.Event
	builds := 0
	for _, e := range o.Events.Recent(0) {
		switch e.Type {
		case obs.EventSubgraphAdd:
			added = append(added, e)
		case obs.EventBuild:
			builds++
		}
	}
	if len(added) != 3 || builds != 1 {
		t.Fatalf("%d subgraph_add events and %d builds, want 3 and 1: the accepted documents are one run", len(added), builds)
	}
	for _, e := range added[1:] {
		if e.NodesBefore != added[0].NodesBefore || e.NodesAfter != added[0].NodesAfter {
			t.Errorf("the run's members report %d->%d and %d->%d index nodes, want the run's for each",
				added[0].NodesBefore, added[0].NodesAfter, e.NodesBefore, e.NodesAfter)
		}
	}
	if err := batched.IG().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := batched.Audit(3); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedMemberKeepsTheDocumentRun: a member that is not a document and
// is rejected between two documents leaves them one run, as replaying the
// logged frame — which holds the accepted members alone — groups them, so
// the recovered store reaches the live state. It is judged on the state the
// open run will leave: an edge to a node of a document still in the run is
// in range, so it is accepted and closes the run, and a promotion of a label
// only a document of the run brings is accepted too.
func TestRejectedMemberKeepsTheDocumentRun(t *testing.T) {
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
	o := obs.NewObserver()
	idx.Observe(o)
	firstNew := NodeID(idx.Stats().DataNodes) // the first document's first node
	batch := []Mutation{
		{Op: MutAddDocument, Doc: []byte(`<movieDB><series><title/></series></movieDB>`)},
		{Op: MutAddEdge, From: 0, To: firstNew + 100}, // out of range even after the run
		{Op: MutPromote, Label: "nowhere", K: 1},      // a label neither the index nor the run has
		{Op: MutAddDocument, Doc: []byte(`<movieDB><movie><title/></movie></movieDB>`)},
		{Op: MutPromote, Label: "series", K: 1},            // brought by the run
		{Op: MutAddEdge, From: firstNew, To: firstNew + 1}, // in range once the run is grafted
		{Op: MutAddDocument, Doc: []byte(`<movieDB><series/></movieDB>`)},
	}
	acks, err := idx.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if rejected := i == 1 || i == 2; (a.Err != nil) != rejected {
			t.Fatalf("member %d: error %v, want rejected=%v", i, a.Err, rejected)
		}
	}
	builds := 0
	for _, e := range o.Events.Recent(0) {
		if e.Type == obs.EventBuild {
			builds++
		}
	}
	if builds != 2 {
		t.Errorf("%d builds, want 2: the first two documents are one run, the third another", builds)
	}
	live := fingerprint(t, idx)
	fs.Crash()
	fs.Reset()
	st2, _ := recoverStore(t, fs, "store")
	defer st2.Close()
	if got := fingerprint(t, st2.Index()); got != live {
		t.Error("the recovered store, which replayed the frame as one batch, differs from the live state")
	}
}

// TestDocumentNamesInternedOnAcceptance: a document's new label names are
// interned when it is accepted, in order of first appearance, and not before.
// A batch of an accepted document with new names, a rejected one (a nested
// ROOT) with other new names, and an accepted one using both sets must intern
// exactly what the two accepted documents applied singly intern, under the
// same ids and with the same mappings; a name only the rejected document
// carries is never interned.
func TestDocumentNamesInternedOnAcceptance(t *testing.T) {
	docs := []Mutation{
		{Op: MutAddDocument, Doc: []byte(`<site><alpha><beta/></alpha><gamma/></site>`)},
		{Op: MutAddDocument, Doc: []byte(`<ROOT><delta><ghost/></delta><epsilon/></ROOT>`)},
		{Op: MutAddDocument, Doc: []byte(`<site><epsilon><beta/><delta/></epsilon><alpha/><zeta/></site>`)},
	}
	batched, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	singly, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	acks, err := batched.ApplyBatch(docs)
	if err != nil {
		t.Fatal(err)
	}
	if acks[0].Err != nil || acks[2].Err != nil || acks[1].Err == nil {
		t.Fatalf("want the outer documents accepted and the nested ROOT rejected, got %v, %v, %v", acks[0].Err, acks[1].Err, acks[2].Err)
	}
	for _, i := range []int{0, 2} {
		ack, err := singly.Apply(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ack.Mapping, acks[i].Mapping) {
			t.Fatalf("document %d: mapping %v in the batch, %v alone", i, acks[i].Mapping, ack.Mapping)
		}
	}
	got, want := batched.Graph().Labels(), singly.Graph().Labels()
	if got.Len() != want.Len() {
		t.Fatalf("the batch interned %d labels, the accepted documents alone %d", got.Len(), want.Len())
	}
	for l := 0; l < want.Len(); l++ {
		if name := want.Name(graph.LabelID(l)); got.Lookup(name) != graph.LabelID(l) {
			t.Errorf("label %q is %d in the batch, %d applied singly", name, got.Lookup(name), l)
		}
	}
	if l := got.Lookup("ghost"); l != graph.InvalidLabel {
		t.Errorf("the rejected document's own name was interned as %d", l)
	}
	if fingerprint(t, batched) != fingerprint(t, singly) {
		t.Error("the batch and its accepted members applied singly disagree")
	}
}

// TestBatchedStoreDurability drives concurrent writers through the pipeline
// over a store, then leaves three client batches queued with nothing
// committing them and closes the store: Close must wait for them, so recovery
// reproduces the live state, those mutations included.
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

	// The test takes the committer role itself, as a synchronous committer
	// holds it between its groups, so three client batches too large to share
	// a group are accepted and stay queued with nothing committing them.
	// Close, called now, must not return; once the test drains the queue as
	// that committer would, Close must find all three groups in the log.
	f2, to2 := nodeWithLabel(t, idx, "director", 1), nodeWithLabel(t, idx, "title", 2)
	batch := make([]Mutation, 100)
	for i := range batch {
		batch[i] = Mutation{Op: MutAddEdge, From: f2, To: to2}
		if i%2 == 1 {
			batch[i].Op = MutRemoveEdge
		}
	}
	appended := st.Appended()
	idx.batch.mu.Lock()
	idx.batch.busy = true
	idx.batch.mu.Unlock()
	var last Ack
	for range 3 {
		acks, err := idx.ApplyBatchAsync(batch)
		if err != nil {
			idx.drain(0)
			t.Fatal(err)
		}
		last = acks[len(acks)-1]
	}
	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	early := false
	select {
	case err := <-closed:
		early = true
		closed <- err
	case <-time.After(20 * time.Millisecond):
	}
	idx.drain(0)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if early {
		t.Fatal("Close returned while three accepted groups were queued")
	}
	if idx.Watermark() < last.Seq {
		t.Fatalf("Close returned with watermark %d below the last queued seq %d", idx.Watermark(), last.Seq)
	}
	if got := st.Appended() - appended; got != 3*uint64(len(batch)) {
		t.Fatalf("%d of the %d queued mutations were logged before Close", got, 3*len(batch))
	}
	want := fingerprint(t, idx)

	fs.Crash()
	fs.Reset()
	st2, rep := recoverStore(t, fs, "store")
	defer st2.Close()
	if uint64(rep.Replayed) != st.Appended() {
		t.Errorf("recovery replayed %d records, want the %d logged", rep.Replayed, st.Appended())
	}
	if got := fingerprint(t, st2.Index()); got != want {
		t.Fatal("recovered state differs from the live one")
	}
}

// TestApplyBatchStressConcurrent cycles concurrent ApplyBatch writers
// against lock-free snapshot readers and watermark pollers under -race (as
// `make stress` does). Readers assert generation monotonicity, pollers
// assert the watermark is monotonic and never passes the last assigned
// sequence number, and every async promote must settle.
func TestApplyBatchStressConcurrent(t *testing.T) {
	var doc bytes.Buffer
	if err := datagen.XMark(datagen.XMarkScale(0.02)).WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	idx, err := LoadXML(&doc, nil)
	if err != nil {
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
					acks, err := idx.ApplyBatchAsync([]Mutation{{Op: MutPromote, Label: name, K: 1 + rng.Intn(2)}})
					if err == nil {
						err = acks[0].Err
					}
					if err != nil {
						t.Errorf("writer: ApplyBatchAsync: %v", err)
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
	settle(t, idx)
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
