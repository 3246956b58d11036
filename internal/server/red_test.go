package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dkindex"
	"dkindex/internal/obs"
)

func TestRequestIDEchoAndMint(t *testing.T) {
	ts, _ := newTestServer(t)

	// A well-formed client ID is echoed back verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "client-abc.123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc.123" {
		t.Errorf("echoed id = %q, want client-abc.123", got)
	}

	// No (or a malformed) client ID gets a minted one.
	for _, bad := range []string{"", "spaces are bad", strings.Repeat("x", 200), "q\"uote"} {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
		if bad != "" {
			req.Header.Set("X-Request-ID", bad)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" || id == bad {
			t.Errorf("header %q: response id = %q, want minted", bad, id)
		}
		if !validRequestID(id) {
			t.Errorf("minted id %q not well-formed", id)
		}
	}
}

func TestErrorBodyCarriesRequestID(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/query?kind=path", nil) // missing q=
	req.Header.Set("X-Request-ID", "err-attrib-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{`"error"`, `"code"`, `"requestId":"err-attrib-1"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("error body %s missing %s", body, want)
		}
	}
}

// TestREDMetrics checks the per-route bundles: request counters, latency
// histograms, error classes, and that in-flight drains back to zero.
func TestREDMetrics(t *testing.T) {
	ts, idx := newTestServer(t)
	get(t, ts.URL+"/v1/query?kind=path&q=director.movie.title")
	get(t, ts.URL+"/v1/query?kind=path&q=director.movie.title")
	get(t, ts.URL+"/v1/query?kind=nope&q=x") // 400
	http.Get(ts.URL + "/nosuch")             // 404, route "other"

	reg := idx.Observer().Registry
	if v := obs.HTTPRequests.Counter(reg, "/v1/query").Value(); v != 3 {
		t.Errorf("/v1/query requests = %d, want 3", v)
	}
	h := obs.HTTPDuration.Histogram(reg, "/v1/query")
	if h.Count() != 3 || h.Sum() <= 0 {
		t.Errorf("duration histogram count=%d sum=%v, want 3 observations", h.Count(), h.Sum())
	}
	if v := obs.HTTPErrors.Counter(reg, "/v1/query", "4xx").Value(); v != 1 {
		t.Errorf("4xx errors = %d, want 1", v)
	}
	if v := obs.HTTPErrors.Counter(reg, "other", "4xx").Value(); v != 1 {
		t.Errorf("other 4xx errors = %d, want 1", v)
	}
	if v := obs.HTTPInFlight.Gauge(reg, "/v1/query").Value(); v != 0 {
		t.Errorf("in-flight after drain = %v, want 0", v)
	}
}

// TestSlowEndpoint drives queries and checks /v1/slow attributes them: request
// ID, route, cost counters, slowest-first order, and the n= cap.
func TestSlowEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/query?kind=path&q=director.movie.title", nil)
	req.Header.Set("X-Request-ID", "slow-hunt-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	get(t, ts.URL+"/v1/query?kind=rpe&q=movieDB//name")
	get(t, ts.URL+"/v1/query?kind=path&q=") // parse error: not a slow-log entry

	code, body := get(t, ts.URL+"/v1/slow")
	if code != 200 {
		t.Fatalf("/v1/slow = %d", code)
	}
	entries, ok := body["slow"].([]any)
	if !ok || len(entries) != 2 {
		t.Fatalf("slow = %v, want 2 entries", body["slow"])
	}
	if body["offered"].(float64) != 2 {
		t.Errorf("offered = %v, want 2", body["offered"])
	}
	var last float64 = 1 << 60
	byID := map[string]map[string]any{}
	for _, raw := range entries {
		e := raw.(map[string]any)
		byID[e["requestId"].(string)] = e
		if d := e["durationNS"].(float64); d > last {
			t.Error("entries not slowest-first")
		} else {
			last = d
		}
	}
	e := byID["slow-hunt-7"]
	if e == nil {
		t.Fatalf("no entry for slow-hunt-7: %v", byID)
	}
	if e["route"] != "/v1/query" || e["kind"] != "path" || e["query"] != "director.movie.title" {
		t.Errorf("entry = %v", e)
	}
	if e["status"].(float64) != 200 || e["indexNodesVisited"].(float64) <= 0 {
		t.Errorf("entry status/cost = %v", e)
	}

	// n= caps the response; garbage is rejected like the other endpoints.
	if _, body := get(t, ts.URL+"/v1/slow?n=1"); len(body["slow"].([]any)) != 1 {
		t.Errorf("n=1 returned %v", body["slow"])
	}
	if code, _ := get(t, ts.URL+"/v1/slow?n=-1"); code != http.StatusBadRequest {
		t.Errorf("n=-1 = %d, want 400", code)
	}
}

// TestSlowLinksTrace checks the attribution chain: a traced query's slow-log
// entry reports traced=true and /traces carries the same request ID as the
// trace origin.
func TestSlowLinksTrace(t *testing.T) {
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.Observe(tracedObserver())
	ts := httptest.NewServer(New(idx))
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/query?kind=path&q=director.movie.title", nil)
	req.Header.Set("X-Request-ID", "trace-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	_, body := get(t, ts.URL+"/v1/slow")
	e := body["slow"].([]any)[0].(map[string]any)
	if e["traced"] != true {
		t.Fatalf("slow entry not marked traced: %v", e)
	}
	_, body = get(t, ts.URL+"/v1/traces")
	traces := body["traces"].([]any)
	if len(traces) != 1 {
		t.Fatalf("traces = %v", traces)
	}
	if origin := traces[0].(map[string]any)["origin"]; origin != "trace-me-1" {
		t.Errorf("trace origin = %v, want trace-me-1", origin)
	}
}

// TestTracesPagination checks /traces?n= keeps the newest n traces.
func TestTracesPagination(t *testing.T) {
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.Observe(tracedObserver())
	ts := httptest.NewServer(New(idx))
	defer ts.Close()

	queries := []string{"director", "director.movie", "director.movie.title"}
	for _, q := range queries {
		if code, _ := get(t, ts.URL+"/v1/query?kind=path&q="+q); code != 200 {
			t.Fatalf("query %s failed", q)
		}
	}
	_, body := get(t, ts.URL+"/v1/traces?n=2")
	traces := body["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(traces))
	}
	// Newest two, oldest first within the page.
	if q := traces[0].(map[string]any)["query"]; q != "director.movie" {
		t.Errorf("first paged trace = %v, want director.movie", q)
	}
	if q := traces[1].(map[string]any)["query"]; q != "director.movie.title" {
		t.Errorf("second paged trace = %v, want director.movie.title", q)
	}
	if code, _ := get(t, ts.URL+"/v1/traces?n=x"); code != http.StatusBadRequest {
		t.Errorf("n=x = %d, want 400", code)
	}
}

// TestBatchSlowEntry checks a batch lands as one aggregated slow-log entry.
func TestBatchSlowEntry(t *testing.T) {
	ts, _ := newTestServer(t)
	code, _ := post(t, ts.URL+"/v1/query", "application/json",
		`{"queries":[{"kind":"path","q":"director.movie.title"},{"kind":"rpe","q":"movieDB//name"}]}`)
	if code != 200 {
		t.Fatalf("batch = %d", code)
	}
	_, body := get(t, ts.URL+"/v1/slow")
	entries := body["slow"].([]any)
	if len(entries) != 1 {
		t.Fatalf("slow entries = %d, want 1 aggregated batch entry", len(entries))
	}
	e := entries[0].(map[string]any)
	if e["kind"] != "batch" || e["query"] != "2 queries" {
		t.Errorf("batch entry = %v", e)
	}
	if e["indexNodesVisited"].(float64) <= 0 || e["results"].(float64) <= 0 {
		t.Errorf("batch entry cost not aggregated: %v", e)
	}
}

// TestRequestIDTravelsAsAValue: the ID reaches error bodies, the slow log
// (single queries and batches) and the wire without being read back off the
// response header, under the header names clients have always seen.
func TestRequestIDTravelsAsAValue(t *testing.T) {
	srv := New(goldenIndex(t))
	serve := func(method, target, body, id string) *httptest.ResponseRecorder {
		return serveOnce(srv, method, target, body, id)
	}
	rec := serve("GET", "/v1/query?q=director.movie.title", "", "by-value-1")
	for _, name := range []string{"X-Request-Id", "Content-Type"} {
		if vals := rec.Header()[name]; len(vals) != 1 || vals[0] == "" {
			t.Errorf("response header %s = %q, want one value", name, vals)
		}
	}
	if got := rec.Header()["X-Request-Id"][0]; got != "by-value-1" {
		t.Errorf("echoed id = %q", got)
	}
	serve("POST", "/v1/query", `{"queries":[{"q":"name"}]}`, "by-value-2")
	for _, tc := range []struct{ method, target, body string }{
		{"GET", "/v1/query?q=director..title", ""}, // fails inside Run
		{"GET", "/v1/query?kind=path", ""},         // fails before it
		{"POST", "/v1/query", `{"queries":[]}`},
		{"POST", "/v1/mutate", `{"op":"nope"}`},
	} {
		rec := serve(tc.method, tc.target, tc.body, "by-value-3")
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["requestId"] != "by-value-3" || rec.Code < 400 {
			t.Errorf("%s %s = %d %s, want an error body with requestId by-value-3", tc.method, tc.target, rec.Code, rec.Body)
		}
	}
	minted := serve("GET", "/v1/query?q=director..title", "", "")
	var out map[string]any
	if err := json.Unmarshal(minted.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	mintedID := minted.Header()["X-Request-Id"][0]
	if !validRequestID(mintedID) || !strings.HasPrefix(mintedID, reqIDPrefix+"-") || out["requestId"] != mintedID {
		t.Errorf("minted id %q, error body %v", mintedID, out)
	}
	slow := map[string]string{}
	for _, e := range srv.Observer().Slow.Snapshot() {
		slow[e.RequestID] = e.Query
	}
	for id, query := range map[string]string{
		"by-value-1": "director.movie.title", "by-value-2": "1 queries", "by-value-3": "director..title", mintedID: "director..title",
	} {
		if slow[id] != query {
			t.Errorf("slow log has %q under request id %s, want %q (all: %v)", slow[id], id, query, slow)
		}
	}
}
