package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dkindex"
	"dkindex/internal/faultfs"
	"dkindex/internal/obs"
)

const doc = `<movieDB><director><name/><movie><title/></movie></director></movieDB>`

// syncBuffer guards the log sink: handler goroutines and the serve loop both
// write to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func writeDoc(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSetupAndServe(t *testing.T) {
	path := writeDoc(t, doc)
	var out bytes.Buffer
	errb := &syncBuffer{}
	cfg, code := setup([]string{"-in", path, "-req", "title=2", "-addr", ":0"}, &out, errb)
	if code != 0 {
		t.Fatalf("setup exit %d: %s", code, errb.String())
	}
	if cfg.addr != ":0" || cfg.handler == nil {
		t.Fatal("setup returned no handler")
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Errorf("banner: %s", out.String())
	}
	ts := httptest.NewServer(cfg.handler)
	resp, err := ts.Client().Get(ts.URL + "/v1/query?q=director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("query status = %d", resp.StatusCode)
	}
	ts.Close() // drain handlers before reading the log
	log := errb.String()
	if !strings.Contains(log, "msg=request") || !strings.Contains(log, "path=/v1/query") {
		t.Errorf("no request log line:\n%s", log)
	}
}

// TestSetupRefusesShardedDirectory: a data directory an earlier, sharded
// dkserve wrote (a shard map beside shard-NNN/ stores) is refused with exit 2
// and a message saying why, and nothing is created in it — not a fresh,
// empty checkpoint next to the documents it already holds.
func TestSetupRefusesShardedDirectory(t *testing.T) {
	path := writeDoc(t, doc)
	dir := t.TempDir()
	for _, sub := range []string{"shard-000", "shard-001"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	shardMap := `{"version":1,"shards":2,"docs":[{"shard":0,"nodes":5}]}`
	if err := os.WriteFile(filepath.Join(dir, "shardmap.json"), []byte(shardMap), 0o644); err != nil {
		t.Fatal(err)
	}
	errb := &syncBuffer{}
	if _, code := setup([]string{"-data-dir", dir, "-in", path, "-addr", ":0"}, &bytes.Buffer{}, errb); code != 2 {
		t.Errorf("setup over a sharded directory exit %d, want 2: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "sharded directories are no longer served") {
		t.Errorf("no reason given:\n%s", errb.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("the refused directory now holds %v, want only what it held", names)
	}
}

func TestSetupErrors(t *testing.T) {
	var out bytes.Buffer
	errb := &syncBuffer{}
	if _, code := setup(nil, &out, errb); code != 2 {
		t.Errorf("no input exit = %d, want 2", code)
	}
	if _, code := setup([]string{"-badflag"}, &out, errb); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if _, code := setup([]string{"-in", "/nonexistent.xml"}, &out, errb); code != 1 {
		t.Errorf("missing file exit = %d, want 1", code)
	}
	path := writeDoc(t, doc)
	if _, code := setup([]string{"-in", path, "-req", "x=bad"}, &out, errb); code != 1 {
		t.Errorf("bad req exit = %d, want 1", code)
	}
}

// TestSetupPprofFlag checks -pprof mounts the profiling handlers.
func TestSetupPprofFlag(t *testing.T) {
	path := writeDoc(t, doc)
	var out bytes.Buffer
	cfg, code := setup([]string{"-in", path, "-pprof"}, &out, &syncBuffer{})
	if code != 0 {
		t.Fatalf("setup exit %d", code)
	}
	ts := httptest.NewServer(cfg.handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof cmdline = %d with -pprof, want 200", resp.StatusCode)
	}
}

// TestSetupDanglingWarning loads a document with a dangling IDREF and expects
// a structured warning plus the counter metric.
func TestSetupDanglingWarning(t *testing.T) {
	path := writeDoc(t, `<movieDB><actor movieref="nosuch"><name/></actor></movieDB>`)
	var out bytes.Buffer
	errb := &syncBuffer{}
	cfg, code := setup([]string{"-in", path}, &out, errb)
	if code != 0 {
		t.Fatalf("setup exit %d: %s", code, errb.String())
	}
	log := errb.String()
	if !strings.Contains(log, "dangling") || !strings.Contains(log, "nosuch") {
		t.Errorf("no dangling-reference warning:\n%s", log)
	}
	var sb strings.Builder
	if err := cfg.observer.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dk_load_dangling_refs_total 1") {
		t.Errorf("dangling-ref counter not set:\n%s", sb.String())
	}
}

// TestDataDirDurableRestart drives the full lifecycle twice: the first run
// creates a store from -in, mutates through the API and shuts down (folding
// the log into a final checkpoint); the second run recovers from -data-dir
// alone and must still carry the mutation.
func TestDataDirDurableRestart(t *testing.T) {
	path := writeDoc(t, doc)
	dir := filepath.Join(t.TempDir(), "store")

	// First run: create the store and promote title to k=2.
	errb := &syncBuffer{}
	cfg, code := setup([]string{"-in", path, "-data-dir", dir, "-addr", ":0"}, &bytes.Buffer{}, errb)
	if code != 0 {
		t.Fatalf("setup exit %d: %s", code, errb.String())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() { done <- serve(ctx, ln, cfg) }()
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/mutate", ln.Addr()),
		"application/json", strings.NewReader(`{"op":"promote","label":"title","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("promote status = %d", resp.StatusCode)
	}
	cancel()
	select {
	case exit := <-done:
		if exit != 0 {
			t.Fatalf("serve exit = %d: %s", exit, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}

	// Second run: -data-dir alone recovers, and -in/-req are reported as
	// overridden by the durable state.
	errb2 := &syncBuffer{}
	cfg2, code := setup([]string{"-data-dir", dir, "-in", path, "-req", "name=1", "-addr", ":0"},
		&bytes.Buffer{}, errb2)
	if code != 0 {
		t.Fatalf("restart setup exit %d: %s", code, errb2.String())
	}
	defer cfg2.store.Close()
	log := errb2.String()
	if !strings.Contains(log, "store recovered") {
		t.Errorf("no recovery log line:\n%s", log)
	}
	if !strings.Contains(log, "ignored") {
		t.Errorf("no override warning for -in/-req:\n%s", log)
	}
	ts := httptest.NewServer(cfg2.handler)
	defer ts.Close()
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		MaxK int `json:"maxK"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.MaxK != 2 {
		t.Errorf("recovered maxK = %d, want 2 (promotion lost)", stats.MaxK)
	}
	// Readiness reflects the serving state.
	rr, err := ts.Client().Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != 200 {
		t.Errorf("readyz = %d after setup", rr.StatusCode)
	}
}

// TestGracefulShutdown runs the real serve loop, sends traffic, cancels the
// context (the SIGINT/SIGTERM path) and expects a clean exit with a final
// metrics snapshot in the log.
func TestGracefulShutdown(t *testing.T) {
	path := writeDoc(t, doc)
	var out bytes.Buffer
	errb := &syncBuffer{}
	cfg, code := setup([]string{"-in", path}, &out, errb)
	if code != 0 {
		t.Fatalf("setup exit %d: %s", code, errb.String())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() { done <- serve(ctx, ln, cfg) }()

	url := fmt.Sprintf("http://%s/v1/query?q=director.movie.title", ln.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case exit := <-done:
		if exit != 0 {
			t.Errorf("serve exit = %d, want 0", exit)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}
	log := errb.String()
	if !strings.Contains(log, "shutdown signal received") {
		t.Errorf("no shutdown log line:\n%s", log)
	}
	if !strings.Contains(log, "final metrics snapshot") || !strings.Contains(log, "dk_queries_total") {
		t.Errorf("final metrics snapshot missing or empty:\n%s", log)
	}
}

// faultyStore builds a store on a fault-injecting filesystem with one
// un-checkpointed mutation, ready for checkpointLoop to pick up.
func faultyStore(t *testing.T) (*faultfs.MemFS, *dkindex.Store) {
	t.Helper()
	fs := faultfs.New()
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dkindex.CreateStore("store", idx, &dkindex.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "title", K: 1}); err != nil {
		t.Fatal(err)
	}
	return fs, st
}

func ckptTestConfig(st *dkindex.Store, maxFailures int, errb *syncBuffer) *config {
	return &config{
		store:     st,
		ckptEvery: 2 * time.Millisecond,
		ckptRetry: ckptRetryPolicy{floor: time.Millisecond, cap: 4 * time.Millisecond, maxFailures: maxFailures},
		logger:    slog.New(slog.NewTextHandler(errb, nil)),
		observer:  obs.NewObserver(),
	}
}

func countRetryEvents(cfg *config) int {
	n := 0
	for _, e := range cfg.observer.Events.Recent(0) {
		if e.Type == obs.EventCheckpointRetry {
			n++
		}
	}
	return n
}

// TestCheckpointLoopRetriesTransientFailure injects one checkpoint failure:
// the loop must emit a checkpoint_retry event, retry on its backoff schedule
// rather than waiting for the next tick, succeed, and never escalate.
func TestCheckpointLoopRetriesTransientFailure(t *testing.T) {
	fs, st := faultyStore(t)
	epoch0 := st.Epoch()
	errb := &syncBuffer{}
	cfg := ckptTestConfig(st, 8, errb)

	fs.FailAt(1, faultfs.ModeError) // first write of the next checkpoint fails
	stop := make(chan struct{})
	fatal := make(chan error, 1)
	done := make(chan struct{})
	go func() { checkpointLoop(cfg, stop, fatal); close(done) }()

	deadline := time.Now().Add(5 * time.Second)
	for st.Epoch() == epoch0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never succeeded after the transient failure")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	select {
	case err := <-fatal:
		t.Fatalf("transient failure escalated to fatal: %v", err)
	default:
	}
	if countRetryEvents(cfg) == 0 {
		t.Error("no checkpoint_retry event emitted")
	}
	if !strings.Contains(errb.String(), "checkpoint failed, retrying with backoff") {
		t.Errorf("no retry warning in log:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "checkpoint written") {
		t.Errorf("no success line after retry:\n%s", errb.String())
	}
}

// TestCheckpointLoopEscalatesAfterCap crashes the filesystem outright so no
// checkpoint can ever succeed: the loop must emit a retry event per failed
// attempt and report fatal only once the consecutive-failure cap is hit.
func TestCheckpointLoopEscalatesAfterCap(t *testing.T) {
	fs, st := faultyStore(t)
	errb := &syncBuffer{}
	cfg := ckptTestConfig(st, 3, errb)

	fs.Crash() // every filesystem operation fails until Reset
	stop := make(chan struct{})
	defer close(stop)
	fatal := make(chan error, 1)
	done := make(chan struct{})
	go func() { checkpointLoop(cfg, stop, fatal); close(done) }()

	select {
	case err := <-fatal:
		if !strings.Contains(err.Error(), "3 consecutive checkpoint failures") {
			t.Errorf("fatal error does not name the cap: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("persistent checkpoint failure never escalated to fatal")
	}
	<-done
	if got := countRetryEvents(cfg); got != 2 {
		t.Errorf("checkpoint_retry events = %d, want 2 (third failure escalates)", got)
	}
}
