package dkindex

import (
	"bytes"
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dkindex/internal/faultfs"
	"dkindex/internal/fsx"
	"dkindex/internal/obs"
	"dkindex/internal/wal"
)

// TestOneCommitPath pins the write path's shape by reading the source: the
// journal is called from commitLocked and nowhere else, a successor snapshot
// is published from commitLocked and Reload and nowhere else, commitLocked is
// called from drain and nowhere else, and the journal interface has the one
// method that caller needs. A new function that locks, logs and publishes on
// its own — invisible to acks, the watermark, queue ordering and the stage
// histograms — fails here by name, and so does a second route into a commit.
func TestOneCommitPath(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []*ast.FuncDecl
	journal := map[string]bool{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				funcs = append(funcs, d)
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					ts, ok := sp.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "mutationJournal" {
						continue
					}
					for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
						journal[m.Names[0].Name] = true
					}
				}
			}
		}
	}
	if len(journal) != 1 {
		t.Errorf("mutationJournal declares %d methods, want 1: %v", len(journal), journal)
	}

	callers := map[string][]string{} // what is called -> the functions calling it
	for _, fn := range funcs {
		if fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case name == "publish", name == "commitLocked":
				callers[name] = append(callers[name], fn.Name.Name)
			case journal[name]:
				callers["journal"] = append(callers["journal"], fn.Name.Name)
			}
			return true
		})
	}
	for what, want := range map[string]string{
		"publish":      "Reload commitLocked",
		"journal":      "commitLocked",
		"commitLocked": "drain",
	} {
		got := callers[what]
		sort.Strings(got)
		if strings.Join(got, " ") != want {
			t.Errorf("%s is called from %v, want exactly one call in each of: %s", what, got, want)
		}
	}
}

// settle waits until every accepted mutation has settled and its commit has
// returned: an ApplyAsync (the auto-promotion's door) may commit on a
// committer goroutine after it returned.
func settle(t *testing.T, idx *Index) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for idx.Watermark() != idx.LastSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("watermark %d never reached LastSeq %d", idx.Watermark(), idx.LastSeq())
		}
		time.Sleep(time.Millisecond)
	}
	// The watermark moves inside commitLocked, ahead of the commit's events;
	// taking the writer mutex once waits that commit out.
	idx.mu.Lock()
	idx.mu.Unlock()
}

// TestCompactionAndAutoPromotionAreSequenced checks what the two former
// side doors gained by becoming Mutations: each takes exactly one sequence
// number, moves the watermark over it, counts as one commit, and reports its
// lifecycle event after that commit — submitted with nothing in flight
// ("direct"), and submitted while the writer mutex is held, so that it waits
// in the queue for the committer ("batched").
func TestCompactionAndAutoPromotionAreSequenced(t *testing.T) {
	for _, queued := range []bool{false, true} {
		name := "direct"
		if queued {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			idx := open(t)
			o := obs.NewObserver()
			idx.Observe(o)
			// submit runs a submission, with the writer mutex held when queued.
			submit := func(f func()) {
				if queued {
					idx.mu.Lock()
					defer idx.mu.Unlock()
				}
				f()
			}
			commits := o.Counter(obs.BatchCommits)
			// step runs one state change and requires it to be exactly one
			// sequenced commit that emitted the named event.
			step := func(what string, ev obs.EventType, change func()) {
				t.Helper()
				seq, c, n := idx.LastSeq(), commits.Value(), eventTypes(o.Events.Recent(0))[ev]
				change()
				settle(t, idx)
				if idx.LastSeq() != seq+1 || idx.Watermark() != seq+1 {
					t.Errorf("%s: LastSeq %d -> %d, watermark %d, want both %d",
						what, seq, idx.LastSeq(), idx.Watermark(), seq+1)
				}
				if got := commits.Value(); got != c+1 {
					t.Errorf("%s: %s %d -> %d, want +1", what, obs.BatchCommits.Name, c, got)
				}
				if got := eventTypes(o.Events.Recent(0))[ev]; got != n+1 {
					t.Errorf("%s: %d %s events, want %d", what, got, ev, n+1)
				}
			}

			step("compaction", obs.EventCompact, func() {
				if queued {
					var err error
					submit(func() { _, err = idx.ApplyAsync(Mutation{Op: MutCompact}) })
					if err != nil {
						t.Fatal(err)
					}
					return
				}
				ack, err := idx.Apply(Mutation{Op: MutCompact})
				if err != nil {
					t.Fatal(err)
				}
				if ack.Seq != idx.LastSeq() || ack.Generation != idx.Generation() {
					t.Errorf("compact ack = seq %d gen %d, index at seq %d gen %d",
						ack.Seq, ack.Generation, idx.LastSeq(), idx.Generation())
				}
			})

			idx.SetAutoPromote(1)
			step("auto-promotion", obs.EventPromote, func() {
				// Validates on the label-split index, so it crosses at once.
				var err error
				submit(func() { _, _, err = query(idx, KindPath, "director.movie.title") })
				if err != nil {
					t.Fatal(err)
				}
			})
			// The decision is recorded once, ahead of the commit it caused.
			decided, committed := -1, -1
			for i, e := range o.Events.Recent(0) {
				switch e.Type {
				case obs.EventAutoPromote:
					if decided >= 0 {
						t.Error("more than one auto_promote event for one crossing")
					}
					decided = i
				case obs.EventPromote:
					committed = i
					if e.Label != "title" || e.K != 2 {
						t.Errorf("promote event = %+v, want label=title k=2", e)
					}
				}
			}
			if decided < 0 || committed < decided {
				t.Errorf("auto_promote at %d, promote at %d: want the decision first", decided, committed)
			}
			if _, stats, err := query(idx, KindPath, "director.movie.title"); err != nil || stats.Validations != 0 {
				t.Errorf("after auto-promotion: %d validations, err %v", stats.Validations, err)
			}
		})
	}
}

// TestAutoPromoteRetriesAfterRejectedAppend is the regression test for a
// latch that never opened: a promotion the write-ahead log rejected used to
// leave its label's heat fired for good, so the label could never
// auto-promote again. Now the rejected submission zeroes the pressure and the
// next threshold validations retry.
func TestAutoPromoteRetriesAfterRejectedAppend(t *testing.T) {
	const threshold = 3
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
	idx.SetAutoPromote(threshold)
	// press repeats the validating query until it has exerted threshold
	// validations (or stopped validating).
	press := func() {
		t.Helper()
		for sum := 0; sum < threshold; {
			_, stats, err := query(idx, KindPath, "director.movie.title")
			if err != nil {
				t.Fatal(err)
			}
			if stats.Validations == 0 {
				return
			}
			sum += stats.Validations
		}
	}

	gen := idx.Generation()
	fs.FailAt(1, faultfs.ModeError) // the promotion's WAL append fails; the disk stays up
	press()
	settle(t, idx)
	if idx.Generation() != gen || st.Appended() != 0 {
		t.Fatalf("rejected auto-promotion published: generation %d -> %d, %d records", gen, idx.Generation(), st.Appended())
	}
	if idx.LastSeq() != 1 || idx.Watermark() != 1 {
		t.Errorf("rejected auto-promotion: LastSeq %d watermark %d, want 1 and 1", idx.LastSeq(), idx.Watermark())
	}

	// The log healed; the same pressure again lands the promotion.
	press()
	settle(t, idx)
	if idx.Generation() != gen+1 {
		t.Fatalf("auto-promotion never retried: generation %d, want %d", idx.Generation(), gen+1)
	}
	if _, stats, err := query(idx, KindPath, "director.movie.title"); err != nil || stats.Validations != 0 {
		t.Errorf("after the retry: %d validations, err %v", stats.Validations, err)
	}
	recs := walRecords(t, fs, filepath.Join("store", walName(0)))
	if len(recs) != 1 || recs[0].Op != opPromote || !bytes.Equal(recs[0].Payload, encodePromotePayload("title", 2)) {
		t.Errorf("wal holds %v, want one promote(title, 2)", recs)
	}
}

// walRecords reads every intact record of one log file.
func walRecords(t *testing.T, fs fsx.FS, path string) []wal.Record {
	t.Helper()
	var recs []wal.Record
	if _, err := wal.Replay(fs, path, func(r wal.Record) error {
		r.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestWALBytesUnchangedByOneCommitPath holds the on-disk format still while
// compaction moves onto Apply and the journal shrinks to one method: a session
// of lone commits writes byte for byte what a bare wal.Writer appending the
// same records one plain frame at a time writes — op numbers, payloads, no
// group frame around a single member — and a log written that way (what every
// earlier version of the store wrote for a compaction: op 7, no payload)
// recovers to the state the live session reached.
func TestWALBytesUnchangedByOneCommitPath(t *testing.T) {
	fs := faultfs.New()
	idx, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CreateStore("live", idx, &StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	root, dir := nodeWithLabel(t, idx, "movieDB", 0), nodeWithLabel(t, idx, "director", 0)
	from, to := nodeWithLabel(t, idx, "director", 1), nodeWithLabel(t, idx, "title", 0)
	nodes := idx.Stats().DataNodes
	for _, m := range []Mutation{
		{Op: MutAddEdge, From: from, To: to},
		{Op: MutRemoveEdge, From: root, To: dir}, // detaches a subtree for the compaction to drop
		{Op: MutPromote, Label: "title", K: 2},
		{Op: MutCompact},
	} {
		mustApply(t, idx, m)
	}
	if idx.Stats().DataNodes >= nodes {
		t.Fatal("precondition: the compaction dropped nothing")
	}

	// The same records through a bare writer, into a store that has seen none
	// of them.
	twin, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := CreateStore("hand", twin, &StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	handLog := filepath.Join("hand", walName(0))
	w, err := wal.Create(fs, handLog)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wal.GroupRecord{
		{Op: 1, Payload: appendEdgePayload(nil, from, to)},
		{Op: 2, Payload: appendEdgePayload(nil, root, dir)},
		{Op: 4, Payload: encodePromotePayload("title", 2)},
		{Op: 7},
	} {
		if _, err := w.AppendGroup([]wal.GroupRecord{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	live, err := fsx.ReadAll(fs, filepath.Join("live", walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	hand, err := fsx.ReadAll(fs, handLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, hand) {
		t.Errorf("live log (%d bytes) differs from four plain frames (%d bytes)", len(live), len(hand))
	}
	st3, rep := recoverStore(t, fs, "hand")
	defer st3.Close()
	if rep.Replayed != 4 {
		t.Errorf("replayed %d records, want 4", rep.Replayed)
	}
	if fingerprint(t, st3.Index()) != fingerprint(t, idx) {
		t.Error("the hand-written log recovered to a different state than the live session")
	}
}

// TestDecodeWALMutationRejectsWideEndpoints: an edge record's endpoints are
// uvarints, and node ids are int32. An endpoint past that range must be
// refused, not truncated onto a node that exists — 2^32+5 would replay as an
// edge to node 5 and pass every range check after the decode.
func TestDecodeWALMutationRejectsWideEndpoints(t *testing.T) {
	for _, op := range []wal.Op{opEdgeAdd, opEdgeRemove} {
		for _, e := range [][2]uint64{{1<<32 + 5, 1}, {1, 1<<32 + 5}, {math.MaxInt32 + 1, 1}, {1, math.MaxUint64}} {
			payload := binary.AppendUvarint(binary.AppendUvarint(nil, e[0]), e[1])
			if m, err := decodeWALMutation(op, payload); err == nil {
				t.Errorf("op %d: edge %d-%d decoded as %d-%d", op, e[0], e[1], m.From, m.To)
			}
		}
		m, err := decodeWALMutation(op, appendEdgePayload(nil, math.MaxInt32, 5))
		if err != nil || m.From != math.MaxInt32 || m.To != 5 {
			t.Errorf("op %d: the widest node id decoded as %+v, %v", op, m, err)
		}
	}
}
