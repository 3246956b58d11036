package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dkindex"
	"dkindex/internal/obs"
)

const doc = `<?xml version="1.0"?>
<movieDB>
  <director id="d1"><name/><movie id="m1"><title/></movie></director>
  <director id="d2"><name/><movie id="m2"><title/></movie></director>
  <actor id="a1" movieref="m1 m2"><name/></actor>
</movieDB>
`

func newTestServer(t *testing.T) (*httptest.Server, *dkindex.Index) {
	t.Helper()
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: map[string]int{"title": 2}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx))
	t.Cleanup(ts.Close)
	return ts, idx
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func post(t *testing.T, url, contentType, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHealthAndStats(t *testing.T) {
	ts, idx := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/healthz")
	if code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if body["dataNodes"].(float64) == 0 || body["indexNodes"].(float64) == 0 {
		t.Errorf("stats empty: %v", body)
	}
	if got := body["generation"].(float64); uint64(got) != idx.Generation() {
		t.Errorf("stats generation %v != index generation %d", got, idx.Generation())
	}
}

func TestQueryEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/query?q=director.movie.title")
	if code != 200 {
		t.Fatalf("path query = %d %v", code, body)
	}
	if body["count"].(float64) != 2 {
		t.Errorf("count = %v, want 2", body["count"])
	}
	results := body["results"].([]any)
	if len(results) != 2 || results[0].(map[string]any)["label"] != "title" {
		t.Errorf("results = %v", results)
	}

	code, body = get(t, ts.URL+"/v1/query?kind=rpe&q=movieDB//name")
	if code != 200 || body["count"].(float64) != 3 {
		t.Errorf("rpe query = %d %v", code, body)
	}

	code, body = get(t, ts.URL+"/v1/query?kind=twig&q=movie[title]")
	if code != 200 || body["count"].(float64) != 2 {
		t.Errorf("twig query = %d %v", code, body)
	}

	code, _ = get(t, ts.URL+"/v1/query")
	if code != 400 {
		t.Errorf("missing query param = %d, want 400", code)
	}
	code, _ = get(t, ts.URL+"/v1/query?kind=rpe&q=((")
	if code != 400 {
		t.Errorf("bad rpe = %d, want 400", code)
	}
}

func TestQueryLimit(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/query?q=director.movie.title&limit=1")
	if code != 200 {
		t.Fatalf("limited query = %d %v", code, body)
	}
	if body["count"].(float64) != 2 {
		t.Errorf("count = %v, want full result size 2", body["count"])
	}
	if n := len(body["results"].([]any)); n != 1 {
		t.Errorf("listed %d results, want 1", n)
	}

	code, body = get(t, ts.URL+"/v1/query?q=director.movie.title&limit=0")
	if code != 200 || len(body["results"].([]any)) != 0 {
		t.Errorf("limit=0 = %d %v, want 200 with empty results", code, body)
	}
	if body["count"].(float64) != 2 {
		t.Errorf("limit=0 count = %v, want 2", body["count"])
	}

	// Limits beyond the result size are harmless; the cap only trims listing.
	code, body = get(t, ts.URL+"/v1/query?q=director.movie.title&limit=99999")
	if code != 200 || len(body["results"].([]any)) != 2 {
		t.Errorf("huge limit = %d %v, want both results", code, body)
	}

	for _, bad := range []string{"x", "-1", "1.5"} {
		code, _ = get(t, ts.URL+"/v1/query?q=director.movie.title&limit="+bad)
		if code != 400 {
			t.Errorf("limit=%s = %d, want 400", bad, code)
		}
	}
}

// mutate posts one /v1/mutate body.
func mutate(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	return post(t, ts.URL+"/v1/mutate", "application/json", body)
}

func TestEdgeAndDocumentUpdates(t *testing.T) {
	ts, idx := newTestServer(t)
	// Find an actor and a movie.
	actors := nodesOf(t, idx, dkindex.KindPath, "actor")
	movies := nodesOf(t, idx, dkindex.KindPath, "director.movie")
	code, body := mutate(t, ts, fmt.Sprintf(`{"op":"add_edge","from":%d,"to":%d}`, movies[0], actors[0]))
	if code != 200 {
		t.Fatalf("add edge = %d %v", code, body)
	}
	code, _ = mutate(t, ts, fmt.Sprintf(`{"op":"remove_edge","from":%d,"to":%d}`, movies[0], actors[0]))
	if code != 200 {
		t.Fatalf("remove edge = %d", code)
	}
	code, _ = mutate(t, ts, `{"op":"add_edge","from":-5,"to":0}`)
	if code != 400 {
		t.Errorf("bad edge = %d, want 400", code)
	}
	code, _ = mutate(t, ts, `{"garbage":`)
	if code != 400 {
		t.Errorf("bad json = %d, want 400", code)
	}

	// The raw-XML door answers with the single-ack shape of /v1/mutate.
	gen := idx.Generation()
	code, body = post(t, ts.URL+"/v1/documents", "application/xml",
		`<movieDB><director><movie><title/></movie></director></movieDB>`)
	if code != 200 {
		t.Fatalf("add document = %d %v", code, body)
	}
	if body["nodes"].(float64) < 4 || body["generation"].(float64) != float64(gen+1) || body["seq"].(float64) == 0 {
		t.Errorf("document ack = %v, want its nodes, generation %d and a sequence number", body, gen+1)
	}
	code, body = get(t, ts.URL+"/v1/query?q=director.movie.title")
	if body["count"].(float64) != 3 {
		t.Errorf("count after insert = %v, want 3", body["count"])
	}
	code, body = post(t, ts.URL+"/v1/documents", "application/xml", `<broken`)
	if code != 400 || body["code"] != "bad_request" || body["error"] == "" {
		t.Errorf("bad document = %d %v, want 400 bad_request", code, body)
	}
}

func TestPromoteDemoteOptimize(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := mutate(t, ts, `{"op":"promote","label":"name","k":2}`)
	if code != 200 {
		t.Fatalf("promote = %d %v", code, body)
	}
	code, _ = mutate(t, ts, `{"op":"promote","label":"nosuch","k":2}`)
	if code != 400 {
		t.Errorf("promote unknown label = %d, want 400", code)
	}
	code, _ = mutate(t, ts, `{"op":"promote","label":"name","k":999}`)
	if code != 400 {
		t.Errorf("promote huge k = %d, want 400", code)
	}
	code, _ = mutate(t, ts, `{"op":"demote","reqs":{"title":1}}`)
	if code != 200 {
		t.Errorf("demote = %d", code)
	}

	// Optimize requires observed load; the server records every path query.
	get(t, ts.URL+"/v1/query?q=director.movie.title")
	get(t, ts.URL+"/v1/query?q=director.movie.title")
	code, body = mutate(t, ts, `{"op":"optimize","budget":0}`)
	if code != 200 {
		t.Fatalf("optimize = %d %v", code, body)
	}
	if body["requirements"] == nil {
		t.Error("optimize returned no requirements")
	}
	// Recorder drained: an immediate re-optimize has nothing to mine.
	code, body = mutate(t, ts, `{"op":"optimize","budget":0}`)
	if code != 400 || body["code"] != "bad_request" {
		t.Errorf("re-optimize = %d %v, want 400 bad_request", code, body)
	}
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	ts, idx := newTestServer(t)
	movies := nodesOf(t, idx, dkindex.KindPath, "director.movie")
	names := nodesOf(t, idx, dkindex.KindPath, "director.name")
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				switch i % 5 {
				case 0:
					resp, err := http.Get(ts.URL + "/v1/query?q=director.movie.title")
					if err == nil {
						resp.Body.Close()
					}
				case 1:
					resp, err := http.Get(ts.URL + "/v1/query?kind=twig&q=director[name].movie")
					if err == nil {
						resp.Body.Close()
					}
				case 2:
					body := fmt.Sprintf(`{"op":"add_edge","from":%d,"to":%d}`, movies[j%len(movies)], names[j%len(names)])
					resp, err := http.Post(ts.URL+"/v1/mutate", "application/json", strings.NewReader(body))
					if err == nil {
						resp.Body.Close()
					}
				case 3:
					resp, err := http.Get(ts.URL + "/v1/query?kind=rpe&q=movieDB//name&limit=1")
					if err == nil {
						resp.Body.Close()
					}
				case 4:
					doc := `<movieDB><actor><name/></actor></movieDB>`
					resp, err := http.Post(ts.URL+"/v1/documents", "application/xml", strings.NewReader(doc))
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	// Index still structurally sound after the storm.
	if err := idx.IG().Validate(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/v1/query?q=director.movie.title")
	if code != 200 || body["count"].(float64) != 2 {
		t.Errorf("post-storm query = %d %v", code, body)
	}
	// The exposition still parses after live mixed traffic, and counted it.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheusText(resp.Body)
	if err != nil {
		t.Fatalf("/v1/metrics stopped parsing after the storm: %v", err)
	}
	var served float64
	for _, sm := range fams[obs.HTTPRequests.Name].Samples {
		served += sm.Value
	}
	if served < 300 {
		t.Errorf("%s sums to %v after 300 requests", obs.HTTPRequests.Name, served)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/explain?path=director.movie.title")
	if code != 200 {
		t.Fatalf("explain = %d %v", code, body)
	}
	if body["Results"].(float64) != 2 {
		t.Errorf("Results = %v, want 2", body["Results"])
	}
	if body["Matched"] == nil {
		t.Error("Matched missing")
	}
	code, _ = get(t, ts.URL+"/v1/explain")
	if code != 400 {
		t.Errorf("missing path = %d, want 400", code)
	}
}
