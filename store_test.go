package dkindex

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"dkindex/internal/faultfs"
	"dkindex/internal/fsx"
)

// fingerprint hashes the index's canonical serialization; two indexes with
// the same fingerprint answer every query identically.
func fingerprint(tb testing.TB, x *Index) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// nodeWithLabel returns the i-th data node carrying the label, resolved
// against the current snapshot — deterministic, so the same lookup works
// during the original run and during replay.
func nodeWithLabel(tb testing.TB, x *Index, label string, i int) NodeID {
	tb.Helper()
	g := x.Graph()
	for n := 0; n < g.NumNodes(); n++ {
		if g.LabelName(NodeID(n)) == label {
			if i == 0 {
				return NodeID(n)
			}
			i--
		}
	}
	tb.Fatalf("no node %d with label %q", i, label)
	return 0
}

const extraDocXML = `<extras><movie id="m9"><title/><year/></movie></extras>`

// eightDocuments is the benchmark's document batch over the movies
// vocabulary: eight add_document mutations for one ApplyBatch. Some repeat
// shapes the index already has, some bring labels it has never seen, and the
// later ones reach titles through parents the earlier ones introduced, so no
// two of them see the same index.
func eightDocuments() []Mutation {
	docs := []string{
		`<movieDB><director><name/><movie><title/><year/></movie></director></movieDB>`,
		`<movieDB><actor><name/></actor></movieDB>`,
		`<movieDB><studio><movie><title/></movie></studio></movieDB>`,
		`<movieDB><movie><title/><actor><name/></actor></movie></movieDB>`,
		`<movieDB><studio><name/><series><episode><title/></episode></series></studio></movieDB>`,
		`<movieDB><director><movie><title/></movie><movie><year/></movie></director></movieDB>`,
		`<movieDB><series><episode><title/><year/></episode></series></movieDB>`,
		`<movieDB><actor><name/><award/></actor></movieDB>`,
	}
	ms := make([]Mutation, len(docs))
	for i, d := range docs {
		ms[i] = Mutation{Op: MutAddDocument, Doc: []byte(d)}
	}
	return ms
}

// storeSteps is the deterministic mutation battery the durability tests run:
// one of every journaled operation, exercising extent splits, decay, grafts,
// rebuilds and compaction (alone and inside a group), and the two operations that reach the log as a
// set_requirements record they mined themselves (Tune, optimize).
func storeSteps(tb testing.TB) []func(*Index) error {
	edge := func(x *Index) (NodeID, NodeID) {
		return nodeWithLabel(tb, x, "director", 0), nodeWithLabel(tb, x, "title", 1)
	}
	apply := func(x *Index, m Mutation) error { _, err := x.Apply(m); return err }
	applyAll := func(x *Index, ms ...Mutation) error {
		acks, err := x.ApplyBatch(ms)
		for _, a := range acks {
			if err == nil {
				err = a.Err
			}
		}
		return err
	}
	return []func(*Index) error{
		func(x *Index) error {
			return apply(x, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2, "name": 1}})
		},
		func(x *Index) error { f, t := edge(x); return apply(x, Mutation{Op: MutAddEdge, From: f, To: t}) },
		func(x *Index) error { return apply(x, Mutation{Op: MutPromote, Label: "title", K: 2}) },
		func(x *Index) error { return apply(x, Mutation{Op: MutAddDocument, Doc: []byte(extraDocXML)}) },
		func(x *Index) error {
			return apply(x, Mutation{Op: MutAddEdge,
				From: nodeWithLabel(tb, x, "actor", 0), To: nodeWithLabel(tb, x, "year", 0)})
		},
		func(x *Index) error {
			return apply(x, Mutation{Op: MutDemote, Reqs: map[string]int{"title": 1, "name": 1}})
		},
		func(x *Index) error { f, t := edge(x); return apply(x, Mutation{Op: MutRemoveEdge, From: f, To: t}) },
		func(x *Index) error { return apply(x, Mutation{Op: MutPromote, Label: "name", K: 1}) },
		func(x *Index) error { return apply(x, Mutation{Op: MutCompact}) },
		// A group commit: three mutations land as one WAL group frame, so the
		// sweep also crashes inside the frame's write and fsync — recovery
		// must observe the whole batch or none of it.
		func(x *Index) error {
			f, t := edge(x)
			return applyAll(x,
				Mutation{Op: MutAddEdge, From: f, To: t},
				Mutation{Op: MutPromote, Label: "movie", K: 1},
				Mutation{Op: MutRemoveEdge, From: f, To: t})
		},
		// A group with a compaction in the middle: the grafted document is
		// detached and dropped (its ids are the highest, so the edge added
		// after the renumbering still names the nodes it meant), and replay
		// must renumber at the same point of the frame.
		func(x *Index) error {
			extras, nodes := nodeWithLabel(tb, x, "extras", 0), x.Stats().DataNodes
			err := applyAll(x,
				Mutation{Op: MutRemoveEdge, From: x.Graph().Parents(extras)[0], To: extras},
				Mutation{Op: MutCompact},
				Mutation{Op: MutAddEdge, From: nodeWithLabel(tb, x, "director", 1), To: nodeWithLabel(tb, x, "title", 0)})
			if err == nil && x.Stats().DataNodes != nodes-4 {
				tb.Fatalf("compaction inside the group left %d of %d data nodes, want 4 dropped", x.Stats().DataNodes, nodes)
			}
			return err
		},
		// The benchmark's document batch: eight add_document mutations in one
		// group frame, the first of them after an edge update. The live path
		// applies them as one batch to one clone, and recovery replays the
		// frame as the same one batch.
		func(x *Index) error { return applyAll(x, eightDocuments()...) },
		// Tune mines a seeded load and sends what it mined through the write
		// pipeline: recovery sees one set_requirements record.
		func(x *Index) error { return x.Tune(40, 7) },
		// Optimize mines the load observed since WatchLoad and logs what it
		// mined the same way.
		func(x *Index) error {
			x.WatchLoad()
			for _, q := range []string{"director.movie.title", "movieDB.actor.name", "director.movie.title"} {
				if _, err := x.Run(Request{Text: q}); err != nil {
					return err
				}
			}
			return apply(x, Mutation{Op: MutOptimize})
		},
	}
}

// checkpointAfter marks the steps (by index) after which the scenario
// checkpoints, so the sweep crosses rotation and checkpoint-write fault
// points too.
var checkpointAfter = map[int]bool{2: true, 5: true}

// runScenario creates a store in fs and drives the battery, checkpointing
// along the way. It returns the fingerprint after every acknowledged step
// (fps[i] = state once i steps are acknowledged) and how many steps were
// acknowledged before the first error, if any.
func runScenario(tb testing.TB, fs fsx.FS, dir string) (fps []string, acked int, err error) {
	idx, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fps = append(fps, fingerprint(tb, idx))
	st, err := CreateStore(dir, idx, &StoreOptions{FS: fs})
	if err != nil {
		return fps, 0, err
	}
	defer st.Close()
	for i, step := range storeSteps(tb) {
		if err := step(idx); err != nil {
			return fps, i, err
		}
		fps = append(fps, fingerprint(tb, idx))
		if checkpointAfter[i] {
			if err := st.Checkpoint(); err != nil {
				return fps, i + 1, err
			}
		}
	}
	return fps, len(storeSteps(tb)), nil
}

func recoverStore(tb testing.TB, fs fsx.FS, dir string) (*Store, *RecoveryReport) {
	tb.Helper()
	st, rep, err := OpenStore(dir, &StoreOptions{FS: fs})
	if err != nil {
		tb.Fatalf("recovery failed: %v", err)
	}
	return st, rep
}

func TestStoreRecoversFromWALOnly(t *testing.T) {
	fs := faultfs.New()
	fps, acked, err := runScenario(t, fs, "store")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a hard power cut with everything properly synced: recovery
	// must reproduce the final acknowledged state from checkpoints + logs.
	fs.Crash()
	fs.Reset()
	st, rep := recoverStore(t, fs, "store")
	defer st.Close()
	if got := fingerprint(t, st.Index()); got != fps[acked] {
		t.Fatalf("recovered state differs from last acknowledged state")
	}
	if rep.Replayed == 0 {
		t.Error("expected WAL records to replay (steps after the last checkpoint)")
	}
	if rep.TruncatedTail || rep.ChainBroken {
		t.Errorf("clean shutdown reported damage: %+v", rep)
	}
}

func TestStoreCorruptCheckpointFallsBackToChain(t *testing.T) {
	fs := faultfs.New()
	fps, acked, err := runScenario(t, fs, "store")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint; the older checkpoint plus the intact
	// log chain must still reconstruct the acknowledged state.
	names, err := fs.ReadDir("store")
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, n := range names {
		if strings.HasPrefix(n, checkpointPrefix) && n > newest {
			newest = n
		}
	}
	if newest == "" {
		t.Fatal("no checkpoint written")
	}
	sz, err := fs.Size(filepath.Join("store", newest))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Corrupt(filepath.Join("store", newest), int(sz/2), []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	st, rep := recoverStore(t, fs, "store")
	defer st.Close()
	if got := fingerprint(t, st.Index()); got != fps[acked] {
		t.Fatalf("recovered state differs after checkpoint corruption")
	}
	if len(rep.CorruptCheckpoints) != 1 || rep.CorruptCheckpoints[0] != newest {
		t.Errorf("report did not name the corrupt checkpoint: %+v", rep)
	}
	if rep.Checkpoint == newest {
		t.Error("recovery claims to have loaded the corrupt checkpoint")
	}
}

// TestStoreCrashPointSweep is the central durability proof: it re-runs the
// scenario once per I/O operation, injecting a power cut (plain and torn) at
// that operation, recovers, and requires the recovered state to equal the
// state after the last acknowledged mutation — no lost acks, no phantom
// mutations, at every single crash point.
func TestStoreCrashPointSweep(t *testing.T) {
	probe := faultfs.New()
	if _, _, err := runScenario(t, probe, "store"); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 40 {
		t.Fatalf("scenario too small to be interesting: %d I/O ops", total)
	}
	for _, mode := range []faultfs.Mode{faultfs.ModeCrash, faultfs.ModeTorn} {
		t.Run(mode.String(), func(t *testing.T) {
			for n := 1; n <= total; n++ {
				fs := faultfs.New()
				fs.FailAt(n, mode)
				fps, acked, err := runScenario(t, fs, "store")
				if err == nil {
					t.Fatalf("fault at op %d/%d never fired", n, total)
				}
				if !fs.Crashed() {
					t.Fatalf("fault at op %d returned %v without crashing", n, err)
				}
				fs.Reset()
				if !StoreExists(fs, "store") {
					// The crash hit before the initial checkpoint became
					// durable; creation never succeeded, so there is
					// legitimately nothing to recover.
					if acked != 0 {
						t.Fatalf("crash at op %d lost the store after %d acknowledged steps", n, acked)
					}
					continue
				}
				st, _ := recoverStore(t, fs, "store")
				if got := fingerprint(t, st.Index()); got != fps[acked] {
					t.Fatalf("crash at op %d (%d acked): recovered state differs", n, acked)
				}
				// The recovered store accepts new work.
				if _, err := st.Index().Apply(Mutation{Op: MutPromote, Label: "director", K: 1}); err != nil {
					t.Fatalf("crash at op %d: post-recovery mutation failed: %v", n, err)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("crash at op %d: close failed: %v", n, err)
				}
			}
		})
	}
}

func TestStoreFailedAppendAbortsMutation(t *testing.T) {
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
	before := fingerprint(t, idx)
	gen := idx.Stats().Generation

	// The next write (the WAL append) fails; the filesystem stays alive.
	fs.FailAt(1, faultfs.ModeError)
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 2}); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("mutation over a failed WAL append = %v, want ErrNotDurable", err)
	}
	if got := fingerprint(t, idx); got != before {
		t.Error("aborted mutation changed the served state")
	}
	if idx.Stats().Generation != gen {
		t.Error("aborted mutation bumped the snapshot generation")
	}

	// The log rolled back to a record boundary, so the next mutation lands.
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 2}); err != nil {
		t.Fatalf("mutation after aborted append failed: %v", err)
	}

	// Submitted asynchronously, a member whose append fails still settles:
	// the watermark covers its seq, and nothing is published. The member
	// submitted after it commits.
	before, gen = fingerprint(t, idx), idx.Stats().Generation
	promote := []Mutation{{Op: MutPromote, Label: "director", K: 2}}
	fs.FailAt(1, faultfs.ModeError)
	acks, err := idx.ApplyBatchAsync(promote)
	if err != nil || acks[0].Err != nil {
		t.Fatalf("async member refused at submission: %v, %+v", err, acks)
	}
	settle(t, idx)
	if idx.Watermark() < acks[0].Seq {
		t.Errorf("failed async member: watermark %d below its seq %d", idx.Watermark(), acks[0].Seq)
	}
	if idx.Stats().Generation != gen || fingerprint(t, idx) != before {
		t.Error("an async member whose append failed was published")
	}
	if acks, err = idx.ApplyBatchAsync(promote); err != nil || acks[0].Err != nil {
		t.Fatalf("async member after a failed append refused at submission: %v, %+v", err, acks)
	}
	settle(t, idx)
	if idx.Watermark() < acks[0].Seq || idx.Stats().Generation != gen+1 {
		t.Errorf("async member after a failed append: watermark %d (seq %d), generation %d, want %d",
			idx.Watermark(), acks[0].Seq, idx.Stats().Generation, gen+1)
	}
	fs.Crash()
	fs.Reset()
	st2, rep := recoverStore(t, fs, "store")
	defer st2.Close()
	if got := fingerprint(t, st2.Index()); got != fingerprint(t, idx) {
		t.Error("recovered state differs after aborted append + retry")
	}
	if rep.Replayed != 2 {
		t.Errorf("replayed %d records, want 2", rep.Replayed)
	}
}

func TestStoreRefusesDoubleManagement(t *testing.T) {
	fs := faultfs.New()
	idx, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateStore("store", idx, &StoreOptions{FS: fs}); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateStore("other", idx, &StoreOptions{FS: fs}); err == nil {
		t.Error("second store attached to the same index")
	}
	if _, err := CreateStore("store", idx, &StoreOptions{FS: fs}); err == nil {
		t.Error("CreateStore clobbered an existing store directory")
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := idx.Reload(&buf); err == nil || !strings.Contains(err.Error(), "store") {
		t.Errorf("Reload of a managed index = %v, want store-refusal", err)
	}
}

func TestStoreClosedRejectsMutations(t *testing.T) {
	fs := faultfs.New()
	idx, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CreateStore("store", idx, &StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Checkpoint after Close = %v, want ErrStoreClosed", err)
	}
	// The index detaches and keeps working in memory.
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 1}); err != nil {
		t.Errorf("detached index rejected mutation: %v", err)
	}
}

func TestStorePruneKeepsRetention(t *testing.T) {
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
	for i := 0; i < 5; i++ {
		if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: i % 3}); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := fs.ReadDir("store")
	if err != nil {
		t.Fatal(err)
	}
	var ckpts, wals int
	for _, n := range names {
		if strings.HasPrefix(n, checkpointPrefix) {
			ckpts++
		}
		if strings.HasPrefix(n, walPrefix) {
			wals++
		}
	}
	if ckpts != 2 {
		t.Errorf("retained %d checkpoints, want 2: %v", ckpts, names)
	}
	if wals != 2 {
		t.Errorf("retained %d wal files, want 2: %v", wals, names)
	}
	st2, _ := recoverStore(t, fs, "store")
	defer st2.Close()
	if got := fingerprint(t, st2.Index()); got != fingerprint(t, idx) {
		t.Error("recovered state differs after pruning")
	}
}

// TestStoreOSRoundTrip exercises the real filesystem end to end: create,
// mutate, checkpoint, close, recover from disk.
func TestStoreOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fps, acked, err := runScenario(t, fsx.OS{}, filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if !StoreExists(nil, filepath.Join(dir, "store")) {
		t.Fatal("StoreExists does not see the store")
	}
	st, rep := recoverStore(t, fsx.OS{}, filepath.Join(dir, "store"))
	defer st.Close()
	if got := fingerprint(t, st.Index()); got != fps[acked] {
		t.Fatal("recovered state differs on the real filesystem")
	}
	if rep.TruncatedTail || rep.ChainBroken {
		t.Errorf("clean on-disk store reported damage: %+v", rep)
	}
	// And it keeps accepting work across another cycle.
	if _, err := st.Index().Apply(Mutation{Op: MutPromote, Label: "director", K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
