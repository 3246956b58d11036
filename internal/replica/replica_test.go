package replica

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dkindex"
	"dkindex/internal/faultfs"
	"dkindex/internal/faultnet"
	"dkindex/internal/fsx"
	"dkindex/internal/obs"
	"dkindex/internal/server"
	"dkindex/internal/wal"
)

const moviesXML = `<?xml version="1.0"?>
<movieDB>
  <director id="d1">
    <name/>
    <movie id="m1"><title/><year/></movie>
  </director>
  <director id="d2">
    <name/>
    <movie id="m2"><title/><year/></movie>
  </director>
  <actor id="a1" movieref="m1 m2"><name/></actor>
  <movie id="m3"><title/><actor id="a2"><name/></actor></movie>
</movieDB>
`

const extraDocXML = `<extras><movie id="m9"><title/><year/></movie></extras>`

// fingerprint hashes the index's canonical serialization; bit-identical
// replicas produce equal fingerprints.
func fingerprint(tb testing.TB, x *dkindex.Index) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func nodeWithLabel(tb testing.TB, x *dkindex.Index, label string, i int) dkindex.NodeID {
	tb.Helper()
	g := x.Graph()
	for n := 0; n < g.NumNodes(); n++ {
		if g.LabelName(dkindex.NodeID(n)) == label {
			if i == 0 {
				return dkindex.NodeID(n)
			}
			i--
		}
	}
	tb.Fatalf("no node %d with label %q", i, label)
	return 0
}

// primary is one primary under test: a store-backed index served over
// loopback HTTP with the replication feed attached.
type primary struct {
	idx   *dkindex.Index
	store *dkindex.Store
	ts    *httptest.Server
}

func newPrimary(tb testing.TB, fs fsx.FS, dir string) (*primary, error) {
	tb.Helper()
	idx, err := dkindex.LoadXMLString(moviesXML, nil)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := dkindex.CreateStore(dir, idx, &dkindex.StoreOptions{FS: fs})
	if err != nil {
		return nil, err
	}
	srv := server.New(idx)
	srv.SetReplSource(st)
	return &primary{idx: idx, store: st, ts: httptest.NewServer(srv)}, nil
}

func (p *primary) close() {
	p.ts.Close()
	_ = p.store.Close()
}

// workload is the deterministic mutation battery: one of every journaled
// operation, including a group commit, a compaction and a group that holds
// one, so the feed ships plain frames, group frames and compact records both
// ways.
func workload(tb testing.TB, x *dkindex.Index) []func() error {
	edge := func() (dkindex.NodeID, dkindex.NodeID) {
		return nodeWithLabel(tb, x, "director", 0), nodeWithLabel(tb, x, "title", 1)
	}
	apply := func(m dkindex.Mutation) error { _, err := x.Apply(m); return err }
	applyAll := func(ms ...dkindex.Mutation) error {
		acks, err := x.ApplyBatch(ms)
		for _, a := range acks {
			if err == nil {
				err = a.Err
			}
		}
		return err
	}
	return []func() error{
		func() error {
			return apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: map[string]int{"title": 2, "name": 1}})
		},
		func() error { f, t := edge(); return apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: f, To: t}) },
		func() error { return apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "title", K: 2}) },
		func() error { return apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: []byte(extraDocXML)}) },
		func() error {
			return apply(dkindex.Mutation{Op: dkindex.MutAddEdge,
				From: nodeWithLabel(tb, x, "actor", 0), To: nodeWithLabel(tb, x, "year", 0)})
		},
		func() error {
			return apply(dkindex.Mutation{Op: dkindex.MutDemote, Reqs: map[string]int{"title": 1, "name": 1}})
		},
		func() error {
			f, t := edge()
			return apply(dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: f, To: t})
		},
		func() error { return apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "name", K: 1}) },
		func() error { return apply(dkindex.Mutation{Op: dkindex.MutCompact}) },
		func() error {
			f, t := edge()
			return applyAll(
				dkindex.Mutation{Op: dkindex.MutAddEdge, From: f, To: t},
				dkindex.Mutation{Op: dkindex.MutPromote, Label: "movie", K: 1},
				dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: f, To: t})
		},
		// A group frame with a compaction in the middle: the grafted document
		// is detached and dropped; its ids are the highest, so the edge added
		// after the renumbering still names the nodes it meant.
		func() error {
			extras := nodeWithLabel(tb, x, "extras", 0)
			return applyAll(
				dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: x.Graph().Parents(extras)[0], To: extras},
				dkindex.Mutation{Op: dkindex.MutCompact},
				dkindex.Mutation{Op: dkindex.MutAddEdge, From: nodeWithLabel(tb, x, "director", 1), To: nodeWithLabel(tb, x, "title", 0)})
		},
	}
}

// catchUp tails until the replica reaches the store's current head. The
// store is the authority: the replica's own Lag() only reflects the head it
// learned on its last fetch, so a loop on Lag() alone would stop early when
// the primary wrote since.
func catchUp(tb testing.TB, rep *Replica, st *dkindex.Store) {
	tb.Helper()
	_, head := st.ReplStatus()
	for rep.Applied() < head {
		if err := rep.tailOnce(context.Background()); err != nil {
			tb.Fatalf("tail during catch-up: %v", err)
		}
	}
}

func testObserver() *obs.Observer {
	o := obs.NewObserver()
	o.Tracer = obs.NewTracer(0, 8)
	return o
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(tb testing.TB, d time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

func eventTypes(o *obs.Observer) map[obs.EventType]int {
	out := make(map[obs.EventType]int)
	for _, e := range o.Events.Recent(0) {
		out[e.Type]++
	}
	return out
}

func gaugeValue(tb testing.TB, o *obs.Observer, name string) float64 {
	tb.Helper()
	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		tb.Fatal(err)
	}
	fams, err := obs.ParsePrometheusText(strings.NewReader(sb.String()))
	if err != nil {
		tb.Fatal(err)
	}
	f, ok := fams[name]
	if !ok || len(f.Samples) == 0 {
		tb.Fatalf("metric %s not found", name)
	}
	return f.Samples[0].Value
}

// TestReplicaConvergesUnderFaults is the tentpole's proof: a replica tails a
// primary through a continuously faulty link (drops, truncated bodies, 5xx
// bursts, injected latency) while the primary takes writes, checkpoints and
// prunes; once the faults stop, the replica must reach the primary's exact
// state — bit-identical serialization, zero writes accepted on the replica —
// and the lag gauge must return to zero.
func TestReplicaConvergesUnderFaults(t *testing.T) {
	fs := faultfs.New()
	p, err := newPrimary(t, fs, "store")
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	flaky := faultnet.New(p.ts.Client().Transport, faultnet.Options{
		Seed:         42,
		MaxLatency:   time.Millisecond,
		DropRate:     0.15,
		TruncateRate: 0.25,
		ErrorRate:    0.10,
		BurstLen:     2,
	})
	o := testObserver()
	rep := New(Config{
		Primary:      p.ts.URL,
		Client:       &http.Client{Transport: flaky},
		Observer:     o,
		PollInterval: time.Millisecond,
		MinBackoff:   200 * time.Microsecond,
		MaxBackoff:   5 * time.Millisecond,
		ChunkBytes:   256, // many small fetches: truncation lands mid-stream
		MaxLag:       3,
		Seed:         7,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatalf("bootstrap through faults: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = rep.Run(ctx) }()

	// Drive the workload with checkpoints interleaved: rotation, a bootstrap
	// epoch older than the head, and (after the retention limit) pruning that
	// can answer the replica 410.
	for i, step := range workload(t, p.idx) {
		if err := step(); err != nil {
			t.Fatalf("workload step %d: %v", i, err)
		}
		if i == 3 || i == 6 {
			if err := p.store.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after step %d: %v", i, err)
			}
		}
		time.Sleep(3 * time.Millisecond) // let the tail interleave with writes
	}

	flaky.Stop() // heal the link
	_, head := p.store.ReplStatus()
	waitFor(t, 30*time.Second, "replica catch-up", func() bool {
		return rep.Applied() == head && rep.Lag() == 0
	})
	if flaky.Injected() == 0 {
		t.Fatal("fault harness injected nothing; the test proved nothing")
	}

	// Bit-identical state.
	if got, want := fingerprint(t, rep.Index()), fingerprint(t, p.idx); got != want {
		t.Fatalf("replica state diverged from primary:\n  replica %s\n  primary %s", got, want)
	}
	if err := rep.Index().Audit(rep.Index().Stats().MaxK); err != nil {
		t.Fatalf("replica audit: %v", err)
	}
	if g, w := rep.Index().Generation(), p.idx.Generation(); g == 0 || w == 0 {
		t.Fatalf("generations not advancing: replica %d primary %d", g, w)
	}

	// Lag gauge settled at zero; lifecycle events recorded.
	if v := gaugeValue(t, o, obs.ReplLagSeq.Name); v != 0 {
		t.Fatalf("dk_repl_lag_seq = %v after catch-up, want 0", v)
	}
	if v := gaugeValue(t, o, obs.ReplAppliedSeq.Name); uint64(v) != head {
		t.Fatalf("dk_repl_applied_seq = %v, want %d", v, head)
	}
	ev := eventTypes(o)
	if ev[obs.EventReplBootstrap] == 0 || ev[obs.EventReplCaughtUp] == 0 {
		t.Fatalf("missing replica lifecycle events: %v", ev)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("replica loop did not stop")
	}
}

// TestReplicaBoundedLagAndStaleness drives the tail by hand with a tiny chunk
// budget: mid-catch-up the lag exceeds the bound, so Ready fails and the
// stale gauge/event flip while reads keep working; at the head everything
// recovers.
func TestReplicaBoundedLagAndStaleness(t *testing.T) {
	fs := faultfs.New()
	p, err := newPrimary(t, fs, "store")
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	o := testObserver()
	rep := New(Config{
		Primary:    p.ts.URL,
		Client:     p.ts.Client(),
		Observer:   o,
		ChunkBytes: 1, // one frame per fetch
		MaxLag:     2,
		Seed:       1,
	})
	ctx := context.Background()
	if err := rep.bootstrapOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rep.Ready(); err != nil {
		t.Fatalf("fresh replica not ready: %v", err)
	}
	for i, step := range workload(t, p.idx) {
		if err := step(); err != nil {
			t.Fatalf("workload step %d: %v", i, err)
		}
	}
	// One fetch applies one frame; the head is many frames ahead.
	if err := rep.tailOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.Lag() <= 2 {
		t.Fatalf("lag = %d after one tiny fetch, want > bound 2", rep.Lag())
	}
	if !rep.Stale() {
		t.Fatal("replica not marked stale past the bound")
	}
	if err := rep.Ready(); err == nil {
		t.Fatal("Ready() = nil while stale, want lag error")
	}
	if v := gaugeValue(t, o, obs.ReplStale.Name); v != 1 {
		t.Fatalf("dk_repl_stale = %v while stale, want 1", v)
	}
	// Degraded, not down: the index still answers queries.
	if _, err := rep.Index().Stats(), error(nil); err != nil {
		t.Fatal(err)
	}
	for rep.Lag() > 0 {
		if err := rep.tailOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Stale() {
		t.Fatal("replica still stale at the head")
	}
	if err := rep.Ready(); err != nil {
		t.Fatalf("Ready() = %v at the head", err)
	}
	if v := gaugeValue(t, o, obs.ReplStale.Name); v != 0 {
		t.Fatalf("dk_repl_stale = %v at the head, want 0", v)
	}
	ev := eventTypes(o)
	if ev[obs.EventReplStale] == 0 || ev[obs.EventReplFresh] == 0 {
		t.Fatalf("missing stale/fresh transition events: %v", ev)
	}
	if got, want := fingerprint(t, rep.Index()), fingerprint(t, p.idx); got != want {
		t.Fatal("replica state diverged from primary")
	}
}

// TestReplicaInstanceChangeRebootstraps restarts the primary process (same
// directory, new store instance): the replica's next fetch must detect the
// instance change, reset the stream and converge on the recovered state.
func TestReplicaInstanceChangeRebootstraps(t *testing.T) {
	fs := faultfs.New()
	p, err := newPrimary(t, fs, "store")
	if err != nil {
		t.Fatal(err)
	}

	rep := New(Config{Primary: p.ts.URL, Client: p.ts.Client(), Seed: 1})
	ctx := context.Background()
	if err := rep.bootstrapOnce(ctx); err != nil {
		t.Fatal(err)
	}
	steps := workload(t, p.idx)
	for i, step := range steps[:5] {
		if err := step(); err != nil {
			t.Fatalf("workload step %d: %v", i, err)
		}
	}
	catchUp(t, rep, p.store)

	// Restart: close cleanly, recover the same directory, serve anew.
	p.ts.Close()
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := dkindex.OpenStore("store", &dkindex.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := server.New(st2.Index())
	srv2.SetReplSource(st2)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	rep.cfg.Primary = ts2.URL
	rep.client = ts2.Client()

	if err := rep.tailOnce(ctx); !errorsIsReset(err) {
		t.Fatalf("tail after primary restart = %v, want stream reset", err)
	}
	if err := rep.bootstrapOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// More writes on the recovered primary, then converge.
	if _, err := st2.Index().Apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "director", K: 1}); err != nil {
		t.Fatal(err)
	}
	catchUp(t, rep, st2)
	if got, want := fingerprint(t, rep.Index()), fingerprint(t, st2.Index()); got != want {
		t.Fatal("replica diverged after instance change")
	}
}

func errorsIsReset(err error) bool {
	return err != nil && strings.Contains(err.Error(), errStreamReset.Error())
}

// TestDocumentGroupThreeWays commits the benchmark's write — a group of eight
// add_document mutations, the first of them right after edge updates, so its
// refinement merges index nodes and the others graft in place — and reaches
// the resulting state three ways: live (one ApplyBatch on one clone), on a
// replica (the group frame shipped whole) and by crash recovery. The replica
// and recovery both replay each logged frame as the one commit that wrote it,
// so the recovered index has published one generation per frame, not one per
// record, and all three must save to the same bytes.
func TestDocumentGroupThreeWays(t *testing.T) {
	fs := faultfs.New()
	p, err := newPrimary(t, fs, "store")
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	o := testObserver()
	p.idx.Observe(o)
	rep := New(Config{Primary: p.ts.URL, Client: p.ts.Client(), Seed: 1})
	if err := rep.bootstrapOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// With these three edges the index graph can no longer tell the movies
	// under a director from the one under movieDB, so the next refinement
	// over it folds the two classes (and their titles) together.
	prime := []dkindex.Mutation{
		{Op: dkindex.MutSetRequirements, Reqs: map[string]int{"title": 2, "name": 1}},
		{Op: dkindex.MutAddEdge, From: nodeWithLabel(t, p.idx, "director", 0), To: nodeWithLabel(t, p.idx, "movie", 2)},
		{Op: dkindex.MutAddEdge, From: nodeWithLabel(t, p.idx, "actor", 0), To: nodeWithLabel(t, p.idx, "movie", 2)},
		{Op: dkindex.MutAddEdge, From: nodeWithLabel(t, p.idx, "movieDB", 0), To: nodeWithLabel(t, p.idx, "movie", 0)},
	}
	for _, m := range prime {
		if _, err := p.idx.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	docs := make([]dkindex.Mutation, 8)
	for i := range docs {
		// A movie reached from movieDB, a director and an actor, like the
		// merged class: the document adds no class of its own.
		doc := `<movieDB movieref="x"><director><movie id="x"><title/></movie></director><actor movieref="x"><name/></actor></movieDB>`
		if i%2 == 1 {
			doc = fmt.Sprintf(`<movieDB><studio><movie><title/><kind%d/></movie></studio></movieDB>`, i/3)
		}
		docs[i] = dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: []byte(doc)}
	}
	acks, err := p.idx.ApplyBatch(docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		if a.Err != nil {
			t.Fatal(a.Err)
		}
	}
	merged, grafted := 0, 0
	for _, e := range o.Events.Recent(0) {
		if e.Type != obs.EventSubgraphAdd {
			continue
		}
		if e.NodesAfter < e.NodesBefore {
			merged++
		} else {
			grafted++
		}
	}
	if merged == 0 || grafted == 0 {
		t.Fatalf("the group should take both of Algorithm 3's branches: %d documents shrank the index, %d did not", merged, grafted)
	}
	live := fingerprint(t, p.idx)

	catchUp(t, rep, p.store)
	if got := fingerprint(t, rep.Index()); got != live {
		t.Error("the replica, which applied the group frame as one batch, differs from the primary")
	}

	p.ts.Close()
	fs.Crash()
	fs.Reset()
	st, rec, err := dkindex.OpenStore("store", &dkindex.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec.Replayed != len(prime)+len(docs) {
		t.Fatalf("recovery replayed %d records, want %d", rec.Replayed, len(prime)+len(docs))
	}
	if got := fingerprint(t, st.Index()); got != live {
		t.Error("the recovered store differs from the live state")
	}
	if got, frames := st.Index().Generation(), uint64(len(prime)+1); got != frames {
		t.Errorf("recovery published %d generations, want one per logged frame (%d), not one per record (%d)",
			got, frames, len(prime)+len(docs))
	}
}

// TestFrameThatFailsToReplay: a logged group frame one of whose members no
// longer applies — an edge to a node past the graph, which no live commit
// logs — is divergence, on recovery and on a replica alike. The frame commits
// as one ApplyBatch, so its other members are in the state (a batch applies
// its members independently) and the frames after it are not. OpenStore
// reports a broken chain, re-anchors at a fresh epoch and opens; a replica fed
// the same log resets its stream after reaching the same state.
func TestFrameThatFailsToReplay(t *testing.T) {
	fs := faultfs.New()
	idx, err := dkindex.LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dkindex.CreateStore("store", idx, &dkindex.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if err := idx.Save(&base); err != nil {
		t.Fatal(err)
	}

	edge := func(from, to dkindex.NodeID) dkindex.Mutation {
		return dkindex.Mutation{Op: dkindex.MutAddEdge, From: from, To: to}
	}
	director, actor, movieDB := nodeWithLabel(t, idx, "director", 0), nodeWithLabel(t, idx, "actor", 0), nodeWithLabel(t, idx, "movieDB", 0)
	first := edge(movieDB, nodeWithLabel(t, idx, "movie", 0))
	group := []dkindex.Mutation{
		edge(director, nodeWithLabel(t, idx, "movie", 2)),
		edge(director, dkindex.NodeID(idx.Graph().NumNodes()+5)),
		edge(actor, nodeWithLabel(t, idx, "movie", 2)),
	}
	after := edge(movieDB, nodeWithLabel(t, idx, "movie", 1))
	// Op 1 is add_edge on disk; its payload is the two endpoints as uvarints.
	record := func(m dkindex.Mutation) wal.GroupRecord {
		return wal.GroupRecord{Op: 1, Payload: binary.AppendUvarint(binary.AppendUvarint(nil, uint64(m.From)), uint64(m.To))}
	}
	logPath := "store/wal-00000000.log"
	w, err := wal.Create(fs, logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]wal.GroupRecord{
		{record(first)},
		{record(group[0]), record(group[1]), record(group[2])},
		{record(after)},
	} {
		if _, err := w.AppendGroup(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := fsx.ReadAll(fs, logPath)
	if err != nil {
		t.Fatal(err)
	}

	// The state both replays must reach: the first frame, then the group as
	// the one batch it is, its bad member rejected in place.
	want, err := dkindex.LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.Apply(first); err != nil {
		t.Fatal(err)
	}
	acks, err := want.ApplyBatch(group)
	if err != nil || acks[0].Err != nil || acks[1].Err == nil || acks[2].Err != nil {
		t.Fatalf("the group alone: %v, acks %+v", err, acks)
	}
	g := want.Graph()
	if !g.HasEdge(group[0].From, group[0].To) || !g.HasEdge(group[2].From, group[2].To) || g.HasEdge(after.From, after.To) {
		t.Fatal("precondition: the group's good members hold, the frame after it does not")
	}

	rec, rrep, err := dkindex.OpenStore("store", &dkindex.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.ChainBroken || rrep.Replayed != 1 || rrep.Epoch != 1 {
		t.Fatalf("recovery report %+v, want a broken chain after 1 record, re-anchored at epoch 1", rrep)
	}
	if fingerprint(t, rec.Index()) != fingerprint(t, want) {
		t.Error("recovery holds other than the first frame and the group's good members")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, rrep, err := dkindex.OpenStore("store", &dkindex.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rrep.ChainBroken || fingerprint(t, reopened.Index()) != fingerprint(t, want) {
		t.Errorf("the re-anchored store reopens with %+v to a different state", rrep)
	}

	// A replica bootstrapped from the base checkpoint and fed the same log.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set(server.HeaderReplInstance, "i")
		h.Set(server.HeaderReplNext, "1")
		h.Set(server.HeaderReplHead, "5")
		w.Write(base.Bytes())
	})
	mux.HandleFunc("GET /v1/repl/wal", func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set(server.HeaderReplInstance, "i")
		h.Set(server.HeaderReplFrom, "1")
		h.Set(server.HeaderReplHead, "5")
		w.Write(log)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	rep := New(Config{Primary: ts.URL, Client: ts.Client(), Seed: 1})
	if err := rep.bootstrapOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rep.tailOnce(context.Background()); !errorsIsReset(err) {
		t.Fatalf("tail over the failing frame = %v, want a stream reset", err)
	}
	if rep.Applied() != 1 {
		t.Errorf("replica applied through %d, want 1 (the frame before the failing one)", rep.Applied())
	}
	if fingerprint(t, rep.Index()) != fingerprint(t, want) {
		t.Error("the replica stopped in a different state than recovery")
	}
}

// TestReplicaServesReadOnly wires a replica into the serving layer: reads
// carry the lag header, every mutation route answers the structured read_only
// error, and nothing changes replica state.
func TestReplicaServesReadOnly(t *testing.T) {
	fs := faultfs.New()
	p, err := newPrimary(t, fs, "store")
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	rep := New(Config{Primary: p.ts.URL, Client: p.ts.Client(), Seed: 1})
	if err := rep.bootstrapOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	rsrv := server.New(rep.Index())
	rsrv.SetReplicaMode(p.ts.URL, rep.Status)
	rts := httptest.NewServer(rsrv)
	defer rts.Close()

	before := fingerprint(t, rep.Index())
	resp, err := http.Get(rts.URL + "/v1/query?q=director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("replica query = %d", resp.StatusCode)
	}
	if resp.Header.Get(server.HeaderReplicaLag) == "" {
		t.Fatal("replica response missing X-Replica-Lag-Seq")
	}

	writes := []struct{ path, body string }{
		{"/v1/mutate", `{"op":"promote","label":"title","k":2}`},
		{"/v1/mutate", `{"mutations":[{"op":"add_edge","from":1,"to":2},{"op":"demote","reqs":{"title":1}}]}`},
		{"/v1/mutate?ack=async", `{"op":"optimize"}`},
		{"/v1/documents", `<movieDB><movie><title/></movie></movieDB>`},
	}
	for _, wr := range writes {
		resp, err := http.Post(rts.URL+wr.path, "application/json", strings.NewReader(wr.body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("%s: decoding rejection: %v", wr.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s = %d on replica, want 403", wr.path, resp.StatusCode)
		}
		if envelope.Code != "read_only" || !strings.Contains(envelope.Error, p.ts.URL) {
			t.Errorf("%s rejection = %+v, want read_only naming the primary", wr.path, envelope)
		}
	}
	if fingerprint(t, rep.Index()) != before {
		t.Fatal("rejected writes changed replica state")
	}
}

// TestReplicaCatchUpCrashSweep extends the crash-point sweep to replication:
// the primary's filesystem dies at the n-th I/O operation while a replica
// tails (feed reads included in the op budget, so crashes land inside
// checkpoint serves and WAL reads too). After recovery the replica must
// detect the new instance, re-bootstrap and converge bit-identically on the
// recovered state.
func TestReplicaCatchUpCrashSweep(t *testing.T) {
	// Baseline run to size the op budget.
	probe := faultfs.New()
	total := func() int {
		p, err := newPrimary(t, probe, "store")
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		rep := New(Config{Primary: p.ts.URL, Client: p.ts.Client(), Seed: 1})
		ctx := context.Background()
		if err := rep.bootstrapOnce(ctx); err != nil {
			t.Fatal(err)
		}
		for i, step := range workload(t, p.idx) {
			if err := step(); err != nil {
				t.Fatalf("baseline step %d: %v", i, err)
			}
			if i == 4 || i == 7 {
				if err := p.store.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			catchUp(t, rep, p.store)
		}
		return probe.Ops()
	}()
	if total < 40 {
		t.Fatalf("scenario too small to be interesting: %d I/O ops", total)
	}
	stride := 1
	if testing.Short() {
		stride = 7 // sample the sweep; the full grid runs under make stress
	}
	for n := 1; n <= total; n += stride {
		n := n
		t.Run(fmt.Sprintf("op%d", n), func(t *testing.T) {
			fs := faultfs.New()
			fs.FailAt(n, faultfs.ModeTorn)
			func() { // scenario; any step may die when the fault fires
				p, err := newPrimary(t, fs, "store")
				if err != nil {
					return
				}
				defer p.close()
				rep := New(Config{Primary: p.ts.URL, Client: p.ts.Client(), Seed: 1})
				ctx := context.Background()
				_ = rep.Bootstrap(bounded(ctx))
				for i, step := range workload(t, p.idx) {
					if err := step(); err != nil {
						return
					}
					if (i == 4 || i == 7) && p.store.Checkpoint() != nil {
						return
					}
					_, head := p.store.ReplStatus()
					for rep.Applied() < head {
						if rep.tailOnce(ctx) != nil {
							return
						}
					}
				}
			}()
			if !fs.Crashed() {
				t.Fatalf("fault at op %d/%d never fired", n, total)
			}
			fs.Reset()
			if !dkindex.StoreExists(fs, "store") {
				return // crashed before the store became durable
			}
			st, _, err := dkindex.OpenStore("store", &dkindex.StoreOptions{FS: fs})
			if err != nil {
				t.Fatalf("recovery after crash at op %d: %v", n, err)
			}
			defer st.Close()
			srv := server.New(st.Index())
			srv.SetReplSource(st)
			ts := httptest.NewServer(srv)
			defer ts.Close()

			// A fresh replica of the recovered primary must converge; this is
			// the path a real replica takes after its tail hits the new
			// instance and re-bootstraps.
			rep := New(Config{Primary: ts.URL, Client: ts.Client(), Seed: 1})
			ctx := context.Background()
			if err := rep.bootstrapOnce(ctx); err != nil {
				t.Fatalf("re-bootstrap after crash at op %d: %v", n, err)
			}
			if _, err := st.Index().Apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "director", K: 1}); err != nil {
				t.Fatalf("post-recovery mutation after crash at op %d: %v", n, err)
			}
			catchUp(t, rep, st)
			if got, want := fingerprint(t, rep.Index()), fingerprint(t, st.Index()); got != want {
				t.Fatalf("crash at op %d: replica diverged from recovered primary", n)
			}
		})
	}
}

func bounded(ctx context.Context) context.Context {
	c, cancel := context.WithTimeout(ctx, 5*time.Second)
	_ = cancel // scenario-scoped; the timeout reaps it
	return c
}
