package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dkindex"
	"dkindex/internal/obs"
	"dkindex/internal/obs/promtest"
)

// TestMetricsEndpoint drives real traffic and asserts /metrics serves valid
// Prometheus text covering the required families: per-kind query counters and
// histograms, lifecycle event counters and index size gauges.
func TestMetricsEndpoint(t *testing.T) {
	ts, idx := newTestServer(t)
	if code, _ := get(t, ts.URL+"/v1/query?q=director.movie.title"); code != 200 {
		t.Fatal("query failed")
	}
	if code, _ := get(t, ts.URL+"/v1/query?kind=rpe&q=movieDB//name"); code != 200 {
		t.Fatal("rpe query failed")
	}
	if code, _ := mutate(t, ts, `{"op":"promote","label":"name","k":1}`); code != 200 {
		t.Fatal("promote failed")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics output invalid: %v\n%s", err, body)
	}

	wantType := map[string]string{
		obs.Queries.Name:            "counter",
		obs.QueryErrors.Name:        "counter",
		obs.QuerySeconds.Name:       "histogram",
		obs.QueryIndexVisited.Name:  "histogram",
		obs.QueryDataValidated.Name: "histogram",
		obs.QueryValidations.Name:   "histogram",
		obs.QueryResults.Name:       "histogram",
		obs.LifecycleEvents.Name:    "counter",
		obs.IndexNodes.Name:         "gauge",
		obs.IndexEdges.Name:         "gauge",
		obs.DataNodes.Name:          "gauge",
		obs.DataEdges.Name:          "gauge",
		obs.IndexMaxK.Name:          "gauge",
		obs.HTTPRequests.Name:       "counter",
		obs.BatchStageSeconds.Name:  "histogram",
	}
	for name, typ := range wantType {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("family %s has no HELP text", name)
		}
	}
	byKind := map[string]float64{}
	for _, s := range fams[obs.Queries.Name].Samples {
		byKind[s.Labels["kind"]] = s.Value
	}
	if byKind["path"] != 1 || byKind["rpe"] != 1 {
		t.Errorf("query counters = %v, want path=1 rpe=1", byKind)
	}
	byType := map[string]float64{}
	for _, s := range fams[obs.LifecycleEvents.Name].Samples {
		byType[s.Labels["type"]] = s.Value
	}
	if byType["promote"] != 1 {
		t.Errorf("lifecycle counters = %v, want promote=1", byType)
	}
	st := idx.Stats()
	if v := fams[obs.IndexNodes.Name].Samples[0].Value; int(v) != st.IndexNodes {
		t.Errorf("index nodes gauge = %v, Stats says %d", v, st.IndexNodes)
	}
}

// TestEventsEndpoint checks that promote/demote/edge operations surface as
// typed events on GET /events, with since= resumption and n= capping.
func TestEventsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	if code, _ := mutate(t, ts, `{"op":"promote","label":"title","k":2}`); code != 200 {
		t.Fatal("promote failed")
	}
	if code, _ := mutate(t, ts, `{"op":"add_edge","from":1,"to":2}`); code != 200 {
		t.Fatal("edge add failed")
	}
	if code, _ := mutate(t, ts, `{"op":"demote","reqs":{"title":0}}`); code != 200 {
		t.Fatal("demote failed")
	}

	code, body := get(t, ts.URL+"/v1/events")
	if code != 200 {
		t.Fatalf("/events = %d %v", code, body)
	}
	events, ok := body["events"].([]any)
	if !ok || len(events) == 0 {
		t.Fatalf("events = %v", body["events"])
	}
	types := map[string]int{}
	var lastSeq float64
	for _, raw := range events {
		e := raw.(map[string]any)
		types[e["type"].(string)]++
		lastSeq = e["seq"].(float64)
	}
	for _, want := range []string{"promote", "edge_add", "demote"} {
		if types[want] == 0 {
			t.Errorf("no %s event on /events (got %v)", want, types)
		}
	}
	// since= resumes after the last seen sequence number: nothing new.
	code, body = get(t, ts.URL+"/v1/events?since="+strconv.Itoa(int(lastSeq)))
	if code != 200 {
		t.Fatalf("since query = %d", code)
	}
	if rest := body["events"].([]any); len(rest) != 0 {
		t.Errorf("since=%v returned %d events, want 0", lastSeq, len(rest))
	}
	// n= caps the count.
	code, body = get(t, ts.URL+"/v1/events?n=1")
	if code != 200 || len(body["events"].([]any)) != 1 {
		t.Errorf("n=1 returned %v", body["events"])
	}
}

// TestEventsEndpointRejectsGarbage hardens the new query parameters the same
// way /query?limit= is hardened.
func TestEventsEndpointRejectsGarbage(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, q := range []string{"n=x", "n=-1", "n=1.5", "since=x", "since=-1"} {
		code, body := get(t, ts.URL+"/v1/events?"+q)
		if code != http.StatusBadRequest {
			t.Errorf("/events?%s = %d %v, want 400", q, code, body)
		}
	}
}

// tracedObserver returns an observer whose tracer samples every query.
func tracedObserver() *obs.Observer {
	o := obs.NewObserver()
	o.Tracer = obs.NewTracer(1, 8)
	return o
}

// TestTracesEndpoint samples every query and expects traces to surface.
func TestTracesEndpoint(t *testing.T) {
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.Observe(tracedObserver())
	ts := httptest.NewServer(New(idx))
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/v1/query?q=director.movie.title"); code != 200 {
		t.Fatal("query failed")
	}
	code, body := get(t, ts.URL+"/v1/traces")
	if code != 200 {
		t.Fatalf("/traces = %d", code)
	}
	if body["sampled"].(float64) != 1 {
		t.Errorf("sampled = %v, want 1", body["sampled"])
	}
	traces := body["traces"].([]any)
	if len(traces) != 1 {
		t.Fatalf("traces = %v", traces)
	}
	tr := traces[0].(map[string]any)
	if tr["kind"] != "path" || tr["query"] != "director.movie.title" {
		t.Errorf("trace = %v", tr)
	}
	if spans := tr["spans"].([]any); len(spans) == 0 {
		t.Error("trace has no spans")
	}
}

// TestPprofOptIn checks pprof is absent by default and served after
// EnablePprof.
func TestPprofOptIn(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: %d", resp.StatusCode)
	}

	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	srv.EnablePprof()
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d after EnablePprof, want 200", resp.StatusCode)
	}
}

// TestHTTPRequestCounter checks the bounded-route request counter.
func TestHTTPRequestCounter(t *testing.T) {
	ts, idx := newTestServer(t)
	get(t, ts.URL+"/v1/healthz")
	get(t, ts.URL+"/v1/healthz")
	http.Get(ts.URL + "/nosuch")

	o := idx.Observer()
	if v := obs.HTTPRequests.Counter(o.Registry, "/v1/healthz").Value(); v != 2 {
		t.Errorf("healthz requests = %d, want 2", v)
	}
	if v := obs.HTTPRequests.Counter(o.Registry, "other").Value(); v != 1 {
		t.Errorf("other requests = %d, want 1", v)
	}
}
