package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dkindex"
	"dkindex/internal/obs"
)

func TestReadyz(t *testing.T) {
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Without a check, readiness mirrors liveness.
	code, body := get(t, ts.URL+"/v1/readyz")
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("/v1/readyz = %d %v", code, body)
	}

	// An installed check gates it.
	ready := false
	srv.SetReadyCheck(func() error {
		if !ready {
			return fmt.Errorf("still recovering")
		}
		return nil
	})
	code, body = get(t, ts.URL+"/v1/readyz")
	if code != http.StatusServiceUnavailable || body["code"] != codeNotReady {
		t.Fatalf("not-ready /v1/readyz = %d %v", code, body)
	}
	ready = true
	if code, _ = get(t, ts.URL+"/v1/readyz"); code != http.StatusOK {
		t.Fatalf("/v1/readyz = %d after becoming ready", code)
	}
}

func TestLoadSheddingBoundsInFlight(t *testing.T) {
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	// Park requests inside a handler via a slow body: hold the limiter's
	// only slot with a request whose handler blocks on a pipe.
	srv.SetMaxInFlight(1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	release := make(chan struct{})
	holding := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/documents", &blockingBody{release: release})
		close(holding)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-holding
	// Wait until the slot is actually held, then expect sheds.
	for deadline := time.Now().Add(10 * time.Second); len(srv.inflight) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the blocking request never took the in-flight slot")
		}
	}
	shed := false
	for i := 0; i < 200 && !shed; i++ {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			shed = true
		}
		resp.Body.Close()
	}
	if !shed {
		t.Error("no request was shed while the only slot was held")
	}
	// Probes keep answering at capacity.
	if code, _ := get(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d while saturated", code)
	}
	if code, _ := get(t, ts.URL+"/v1/readyz"); code != http.StatusOK {
		t.Errorf("readyz = %d while saturated", code)
	}
	close(release)
	wg.Wait()
	// The slot drains and normal service resumes.
	if code, _ := get(t, ts.URL+"/v1/stats"); code != http.StatusOK {
		t.Errorf("stats = %d after the held request drained", code)
	}
}

// blockingBody is a request body that blocks until release is closed, so a
// request holds its in-flight slot deterministically.
type blockingBody struct {
	release chan struct{}
	done    bool
}

func (b *blockingBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, io.EOF
	}
	<-b.release
	b.done = true
	return 0, io.EOF
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	// Plant a panicking route behind the middleware.
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	code, body := get(t, ts.URL+"/boom")
	if code != http.StatusInternalServerError || body["code"] != codeInternal {
		t.Fatalf("panicking route = %d %v, want 500 internal", code, body)
	}
	// The server keeps serving afterwards.
	if code, _ := get(t, ts.URL+"/v1/stats"); code != http.StatusOK {
		t.Errorf("stats = %d after a recovered panic", code)
	}
	// The panic is visible on /metrics and the exposition stays parseable.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheusText(resp.Body)
	if err != nil {
		t.Fatalf("metrics unparseable after panic: %v", err)
	}
	found := false
	if f := fams[obs.MetricHTTPPanics]; f != nil {
		for _, sm := range f.Samples {
			if sm.Value >= 1 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("%s not incremented", obs.MetricHTTPPanics)
	}
}

func TestOversizedJSONBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	big := `{"op":"demote","reqs":{"` + strings.Repeat("x", 2<<20) + `":1}}`
	code, body := mutate(t, ts, big)
	if code != http.StatusRequestEntityTooLarge && code != http.StatusBadRequest {
		t.Fatalf("oversized body = %d %v", code, body)
	}
}
