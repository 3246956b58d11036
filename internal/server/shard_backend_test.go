package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dkindex"
	"dkindex/internal/datagen"
	"dkindex/internal/shard"
)

// The sharded engine must satisfy the server's Backend contract.
var _ Backend = (*shard.Engine)(nil)
var _ Backend = (*dkindex.Index)(nil)

// newShardedServer serves a 2-shard engine holding two XMark documents.
func newShardedServer(t *testing.T) (*httptest.Server, *shard.Engine) {
	t.Helper()
	e, err := shard.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		cfg := datagen.XMarkScale(0.02)
		cfg.Seed = seed
		var buf bytes.Buffer
		if err := datagen.XMark(cfg).WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: buf.Bytes(), DocOptions: datagen.LoadOptions()}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewBackend(e))
	t.Cleanup(ts.Close)
	return ts, e
}

// shardGenHeader fetches a URL and returns the X-Shard-Generations header.
func shardGenHeader(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.Header.Get(HeaderShardGenerations)
}

// TestShardedBackendServing checks the /v1 tree is shard-transparent: the
// same endpoints serve merged results with global node ids, stats report the
// shard count and generation vector, and every response carries
// X-Shard-Generations with one element per shard.
func TestShardedBackendServing(t *testing.T) {
	ts, e := newShardedServer(t)

	code, body := get(t, ts.URL+"/v1/query?kind=path&q=site.people.person.name")
	if code != 200 {
		t.Fatalf("query = %d %v", code, body)
	}
	if body["count"].(float64) == 0 {
		t.Error("sharded query returned no results")
	}

	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if body["shards"].(float64) != 2 {
		t.Errorf("stats shards = %v, want 2", body["shards"])
	}
	if gens := body["generations"].([]any); len(gens) != 2 {
		t.Errorf("stats generations = %v, want 2 elements", gens)
	}

	hdr := shardGenHeader(t, ts.URL+"/v1/healthz")
	if parts := strings.Split(hdr, ","); len(parts) != 2 {
		t.Fatalf("X-Shard-Generations = %q, want 2 comma-separated elements", hdr)
	}

	// A mutation moves exactly one element of the header vector.
	before := strings.Split(shardGenHeader(t, ts.URL+"/v1/healthz"), ",")
	target := e.Map().NextShard()
	code, body = post(t, ts.URL+"/v1/documents", "application/xml",
		"<site><people><person id='p'><name/></person></people></site>")
	if code != 200 {
		t.Fatalf("add document = %d %v", code, body)
	}
	after := strings.Split(shardGenHeader(t, ts.URL+"/v1/healthz"), ",")
	for s := 0; s < 2; s++ {
		moved := before[s] != after[s]
		if want := s == target; moved != want {
			t.Errorf("shard %d generation moved=%v, want %v (before %v after %v)", s, moved, want, before, after)
		}
	}

	// The unified mutate endpoint works against the engine too.
	code, body = post(t, ts.URL+"/v1/mutate", "application/json",
		`{"op":"promote","label":"name","k":2}`)
	if code != 200 {
		t.Fatalf("mutate promote = %d %v", code, body)
	}
	// Compaction is the one op the engine declines; the client is told why.
	code, body = post(t, ts.URL+"/v1/mutate", "application/json", `{"op":"compact"}`)
	if code != 400 || body["code"] != "bad_request" || !strings.Contains(fmt.Sprint(body["error"]), "compact is not supported") {
		t.Errorf("mutate compact on a sharded backend = %d %v, want 400 bad_request naming the op", code, body)
	}

	// Merged results are identical to a monolithic index over the same docs:
	// spot-check against the engine's own Run (bit-identity vs the monolith
	// is covered in internal/shard; here we check the HTTP layer round-trip).
	res, err := e.Run(dkindex.Request{Kind: dkindex.KindPath, Text: "site.people.person.name", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts.URL+"/v1/query?kind=path&q=site.people.person.name&limit=5")
	if code != 200 {
		t.Fatalf("limited query = %d", code)
	}
	results := body["results"].([]any)
	if len(results) != len(res.Nodes) {
		t.Fatalf("HTTP returned %d results, engine %d", len(results), len(res.Nodes))
	}
	for i, r := range results {
		if dkindex.NodeID(r.(map[string]any)["node"].(float64)) != res.Nodes[i] {
			t.Errorf("result %d: node %v, want %d", i, r, res.Nodes[i])
		}
	}
}

// TestMonolithicHeaderSingleton checks the header degrades to one element on
// an unsharded backend.
func TestMonolithicHeaderSingleton(t *testing.T) {
	ts, _ := newTestServer(t)
	hdr := shardGenHeader(t, ts.URL+"/v1/healthz")
	if hdr == "" || strings.Contains(hdr, ",") {
		t.Fatalf("X-Shard-Generations = %q, want a single element", hdr)
	}
}
