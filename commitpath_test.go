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
// returned: an ApplyBatchAsync member may commit on a committer goroutine
// after the call returned.
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

// TestCompactionAndAutoPromotionAreSequenced checks that compaction commits
// like any other Mutation: it takes exactly one sequence number, moves the
// watermark over it, counts as one commit, and reports its lifecycle event
// after that commit — applied with nothing in flight ("direct"), and
// submitted through ApplyBatchAsync while the writer mutex is held, so that
// it waits in the queue for the committer ("batched").
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
			commits := o.Counter(obs.BatchCommits)
			seq, c, n := idx.LastSeq(), commits.Value(), eventTypes(o.Events.Recent(0))[obs.EventCompact]
			if queued {
				idx.mu.Lock()
				acks, err := idx.ApplyBatchAsync([]Mutation{{Op: MutCompact}})
				idx.mu.Unlock()
				if err != nil || acks[0].Err != nil {
					t.Fatalf("compact: %v, %+v", err, acks)
				}
				if acks[0].Seq != seq+1 {
					t.Errorf("compact ack seq %d, want %d", acks[0].Seq, seq+1)
				}
			} else {
				ack, err := idx.Apply(Mutation{Op: MutCompact})
				if err != nil {
					t.Fatal(err)
				}
				if ack.Seq != idx.LastSeq() || ack.Generation != idx.Generation() {
					t.Errorf("compact ack = seq %d gen %d, index at seq %d gen %d",
						ack.Seq, ack.Generation, idx.LastSeq(), idx.Generation())
				}
			}
			settle(t, idx)
			if idx.LastSeq() != seq+1 || idx.Watermark() != seq+1 {
				t.Errorf("LastSeq %d -> %d, watermark %d, want both %d",
					seq, idx.LastSeq(), idx.Watermark(), seq+1)
			}
			if got := commits.Value(); got != c+1 {
				t.Errorf("%s %d -> %d, want +1", obs.BatchCommits.Name, c, got)
			}
			if got := eventTypes(o.Events.Recent(0))[obs.EventCompact]; got != n+1 {
				t.Errorf("%d %s events, want %d", got, obs.EventCompact, n+1)
			}
		})
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
