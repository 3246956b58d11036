package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// httpGetRaw fetches a URL and returns the raw body (for non-JSON routes).
func httpGetRaw(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestV1Query(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/query?kind=path&q=director.movie.title")
	if code != 200 {
		t.Fatalf("v1 path query = %d %v", code, body)
	}
	if body["count"].(float64) != 2 || body["kind"] != "path" {
		t.Errorf("count/kind = %v/%v", body["count"], body["kind"])
	}
	if _, ok := body["generation"]; !ok {
		t.Error("response missing generation")
	}
	if _, ok := body["cacheHit"]; !ok {
		t.Error("response missing cacheHit")
	}

	// kind defaults to path, and the response echoes the resolved kind.
	code, body = get(t, ts.URL+"/v1/query?q=director.movie.title")
	if code != 200 || body["count"].(float64) != 2 || body["kind"] != "path" {
		t.Fatalf("default-kind query = %d %v", code, body)
	}
	// The repeat must be a cache hit with identical cost.
	if body["cacheHit"] != true {
		t.Errorf("repeat not served from cache: %v", body)
	}

	code, body = get(t, ts.URL+"/v1/query?kind=twig&q=movie[title]")
	if code != 200 || body["kind"] != "twig" {
		t.Fatalf("twig query = %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/v1/query?kind=rpe&q=director//title")
	if code != 200 || body["kind"] != "rpe" {
		t.Fatalf("rpe query = %d %v", code, body)
	}
}

func TestV1QueryErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		url    string
		status int
		code   string
	}{
		{"/v1/query", 400, "bad_query"},                      // missing q=
		{"/v1/query?kind=nope&q=a", 400, "bad_query"},        // unknown kind
		{"/v1/query?q=director..title", 400, "bad_query"},    // malformed path
		{"/v1/query?q=a.b&limit=-1", 400, "bad_query"},       // bad limit
		{"/v1/query?kind=twig&q=movie[", 400, "bad_query"},   // malformed twig
		{"/v1/query?kind=rpe&q=(director", 400, "bad_query"}, // malformed rpe
	} {
		status, body := get(t, ts.URL+tc.url)
		if status != tc.status || body["code"] != tc.code {
			t.Errorf("%s = %d %v, want %d code=%s", tc.url, status, body, tc.status, tc.code)
		}
		if body["error"] == "" {
			t.Errorf("%s: empty error message", tc.url)
		}
	}
}

func TestV1QueryBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"queries":[
		{"q":"director.movie.title"},
		{"kind":"twig","q":"movie[title]"},
		{"kind":"path","q":"not..valid"},
		{"q":"director.movie.title","limit":1},
		{"q":"director.movie.title","limit":0}
	]}`
	code, out := post(t, ts.URL+"/v1/query", "application/json", body)
	if code != 200 {
		t.Fatalf("batch = %d %v", code, out)
	}
	results := out["results"].([]any)
	if len(results) != 5 {
		t.Fatalf("batch returned %d results, want 5", len(results))
	}
	first := results[0].(map[string]any)
	if first["count"].(float64) != 2 || first["kind"] != "path" {
		t.Errorf("item 0 = %v", first)
	}
	if bad := results[2].(map[string]any); bad["code"] != "bad_query" || bad["error"] == "" {
		t.Errorf("item 2 should be a structured error, got %v", bad)
	}
	limited := results[3].(map[string]any)
	if limited["count"].(float64) != 2 || len(limited["results"].([]any)) != 1 {
		t.Errorf("item 3 limit not applied: %v", limited)
	}
	countOnly := results[4].(map[string]any)
	if countOnly["count"].(float64) != 2 || len(countOnly["results"].([]any)) != 0 {
		t.Errorf("item 4 should list nothing: %v", countOnly)
	}
	// Single-snapshot guarantee: every successful item reports the same
	// generation, which the envelope echoes.
	gen := out["generation"].(float64)
	for i, r := range results {
		m := r.(map[string]any)
		if _, failed := m["code"]; failed {
			continue
		}
		if m["generation"].(float64) != gen {
			t.Errorf("item %d generation %v != batch generation %v", i, m["generation"], gen)
		}
	}
}

func TestV1QueryBatchLimits(t *testing.T) {
	ts, _ := newTestServer(t)
	code, out := post(t, ts.URL+"/v1/query", "application/json", `{"queries":[]}`)
	if code != 400 || out["code"] != "bad_request" {
		t.Errorf("empty batch = %d %v", code, out)
	}
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchQueries; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"q":"director.movie.title"}`)
	}
	b.WriteString(`]}`)
	code, out = post(t, ts.URL+"/v1/query", "application/json", b.String())
	if code != 413 || out["code"] != "too_large" {
		t.Errorf("oversized batch = %d %v", code, out)
	}
	// A JSON body over the byte bound is rejected with the same code.
	huge := `{"queries":[{"q":"` + strings.Repeat("a", maxJSONBody) + `"}]}`
	code, out = post(t, ts.URL+"/v1/query", "application/json", huge)
	if code != 413 || out["code"] != "too_large" {
		t.Errorf("huge body = %d %v", code, out)
	}
}

// TestV1CacheVisibleInStats checks the cache counters surface end to end:
// repeat a query, then confirm /stats counts a cached entry and /metrics
// exposes hit/miss counters.
func TestV1CacheVisibleInStats(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		if code, _ := get(t, ts.URL+"/v1/query?q=director.movie.title"); code != 200 {
			t.Fatalf("query %d failed", i)
		}
	}
	_, body := get(t, ts.URL+"/v1/stats")
	if body["cachedResults"].(float64) < 1 {
		t.Errorf("cachedResults = %v, want >= 1", body["cachedResults"])
	}
	resp, err := httpGetRaw(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"dk_query_cache_hits_total", "dk_query_cache_misses_total", "dk_snapshot_generation"} {
		if !strings.Contains(resp, metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}
}
