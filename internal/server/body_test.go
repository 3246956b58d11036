package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"

	"dkindex"
	"dkindex/internal/datagen"
	"dkindex/internal/graph"
	"dkindex/internal/shard"
)

// A body parked on a cache entry is a correctness risk of its own kind: sent
// to a request it was not built for, it is a wrong answer that looks right.
// These tests hold it to its key — one entry (one generation, kind and text)
// and one number of listed rows.

// reply is a decoded query response.
type reply struct {
	Count      int    `json:"count"`
	CacheHit   bool   `json:"cacheHit"`
	Generation uint64 `json:"generation"`
	Cost       struct{ Validations int }
	Results    []struct {
		Node  dkindex.NodeID `json:"node"`
		Label string         `json:"label"`
	} `json:"results"`
}

func fetchReply(t testing.TB, h http.Handler, target string) (reply, []byte) {
	t.Helper()
	code, body := fetch(t, h, "GET", target, "")
	if code != http.StatusOK {
		t.Fatalf("%s = %d %s", target, code, body)
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("%s: %v in %s", target, err, body)
	}
	return rep, body
}

// nodesOf runs a query through the library and returns every node.
func nodesOf(t testing.TB, idx *dkindex.Index, kind dkindex.Kind, text string) []dkindex.NodeID {
	t.Helper()
	res, err := idx.Run(dkindex.Request{Kind: kind, Text: text})
	if err != nil {
		t.Fatal(err)
	}
	return res.Nodes
}

// checkRows fails unless rep lists exactly the first min(limit, len(want))
// nodes of want (limit 0: none) and counts them all.
func checkRows(t testing.TB, what string, rep reply, want []dkindex.NodeID, limit int) {
	t.Helper()
	if rep.Count != len(want) {
		t.Errorf("%s: count %d, want %d", what, rep.Count, len(want))
		return
	}
	n := min(limit, len(want))
	if len(rep.Results) != n {
		t.Errorf("%s: %d rows listed, want %d", what, len(rep.Results), n)
		return
	}
	for i, row := range rep.Results {
		if row.Node != want[i] {
			t.Errorf("%s: row %d is node %d, want %d", what, i, row.Node, want[i])
			return
		}
	}
}

// TestParkedBodyDiesWithItsGeneration: a query served from its parked body,
// then an add_edge that changes the answer; the same request must come back
// with the new generation and the new rows, and the library must still get
// nodes while the server is serving bodies.
func TestParkedBodyDiesWithItsGeneration(t *testing.T) {
	idx := goldenIndex(t)
	srv := New(idx)
	const target = "/v1/query?q=actor.title"
	var before reply
	for i := 0; i < 3; i++ {
		before, _ = fetchReply(t, srv, target)
	}
	if !before.CacheHit || before.Count != 0 {
		t.Fatalf("warmed actor.title: %+v", before)
	}
	if res, err := idx.Run(dkindex.Request{Text: "actor.title"}); err != nil || res.Body != nil || !res.CacheHit {
		t.Fatalf("library Run beside a parked body: %+v, %v", res, err)
	}

	actor, title := nodesOf(t, idx, dkindex.KindPath, "actor")[0], nodesOf(t, idx, dkindex.KindPath, "title")[0]
	body := fmt.Sprintf(`{"op":"add_edge","from":%d,"to":%d}`, actor, title)
	if code, out := fetch(t, srv, "POST", "/v1/mutate", body); code != http.StatusOK {
		t.Fatalf("add_edge = %d %s", code, out)
	}
	after, _ := fetchReply(t, srv, target)
	if after.CacheHit || after.Generation != before.Generation+1 {
		t.Errorf("after the commit: cacheHit=%v generation %d (was %d)", after.CacheHit, after.Generation, before.Generation)
	}
	checkRows(t, "after add_edge", after, []dkindex.NodeID{title}, defaultListed)
	for i := 0; i < 2; i++ { // and the new generation parks and serves its own
		again, _ := fetchReply(t, srv, target)
		if !again.CacheHit || again.Generation != after.Generation {
			t.Errorf("repeat %d after the commit: %+v", i, again)
		}
		checkRows(t, "repeat after add_edge", again, []dkindex.NodeID{title}, defaultListed)
	}
}

// TestParkedBodyIsPerLimit: one key asked for with limit=10, 100 and 0 in
// turn, over and over, lists the right rows every time; and every response
// is, byte for byte, the oracle's.
func TestParkedBodyIsPerLimit(t *testing.T) {
	srv, idx := tunedXMarkServer(t, 0.1)
	const text = "site.people.person.name"
	want := nodesOf(t, idx, dkindex.KindPath, text)
	if len(want) <= 100 {
		t.Fatalf("%s has %d results, the test needs more than 100", text, len(want))
	}
	for round := 0; round < 4; round++ {
		for _, limit := range []int{10, 100, 0, 100, 10, 10, 0, 0} {
			target := fmt.Sprintf("/v1/query?q=%s&limit=%d", text, limit)
			rep, got := fetchReply(t, srv, target)
			checkRows(t, target, rep, want, limit)
			reqLimit := limit
			if limit == 0 {
				reqLimit = -1
			}
			res, err := idx.Run(dkindex.Request{Text: text, Limit: reqLimit})
			if err != nil {
				t.Fatal(err)
			}
			if exp := oracleJSON(t, oracleResponse(dkindex.KindPath, text, &res)); !bytes.Equal(got, exp) {
				t.Fatalf("%s, round %d:\n got %s\nwant %s", target, round, got, exp)
			}
		}
	}
}

// TestParkedBodyUnderConcurrentCommits: eight readers ask one key with mixed
// limits while a writer adds and removes an edge that changes its answer.
// The answer depends on the generation's parity alone, so every response can
// be checked against the rows its own generation must list. Run with -race.
func TestParkedBodyUnderConcurrentCommits(t *testing.T) {
	idx := goldenIndex(t)
	srv := New(idx)
	const text = "actor.(name|title)" // the actor's name, plus a title once the edge is in
	actor, title := nodesOf(t, idx, dkindex.KindPath, "actor")[0], nodesOf(t, idx, dkindex.KindPath, "title")[1]
	edge := func(op dkindex.MutOp) {
		if _, err := idx.Apply(dkindex.Mutation{Op: op, From: actor, To: title}); err != nil {
			t.Error(err)
		}
	}
	base := idx.Generation()
	answers := [2][]dkindex.NodeID{nodesOf(t, idx, dkindex.KindRPE, text)}
	edge(dkindex.MutAddEdge)
	answers[1] = nodesOf(t, idx, dkindex.KindRPE, text)
	edge(dkindex.MutRemoveEdge)
	if len(answers[0]) != 1 || len(answers[1]) != 2 {
		t.Fatalf("answers by parity: %v", answers)
	}

	stop := make(chan struct{})
	read := make(chan struct{}) // one token per checked response
	var hits atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			limits := []int{1, 0, 5, 1, 1000}
			for i := 0; ; i++ {
				limit := limits[(r+i)%len(limits)]
				target := fmt.Sprintf("/v1/query?kind=rpe&q=%s&limit=%d", url.QueryEscape(text), limit)
				code, body := fetch(t, srv, "GET", target, "")
				var rep reply
				if err := json.Unmarshal(body, &rep); code != http.StatusOK || err != nil {
					t.Errorf("%s = %d %s (%v)", target, code, body, err)
				} else {
					checkRows(t, fmt.Sprintf("%s at generation %d", target, rep.Generation),
						rep, answers[(rep.Generation-base)%2], limit)
				}
				if rep.CacheHit {
					hits.Add(1)
				}
				select {
				case read <- struct{}{}:
				case <-stop:
					return
				}
			}
		}(r)
	}
	// Each generation lives for a few dozen reads, so its entry is hit,
	// parked on and served from before the next commit retires it.
	const generations, readsEach = 100, 24
	for i := 0; i < generations; i++ {
		edge([]dkindex.MutOp{dkindex.MutAddEdge, dkindex.MutRemoveEdge}[i%2])
		for n := 0; n < readsEach; n++ {
			<-read
		}
	}
	close(stop)
	readers.Wait()
	if hits.Load() < generations*readsEach/2 {
		t.Errorf("%d of %d reads were cache hits: the test did not exercise parked bodies", hits.Load(), generations*readsEach)
	}
}

// TestHitsStillFeedTheAdaptiveLoop: the load recorder and auto-promotion
// live on repeats of the frequent queries, which the server now answers
// without parsing them. A query cached before the server started watching is
// recorded from its hits alone; and hits served from a parked body add up to
// the validation pressure that promotes the label.
func TestHitsStillFeedTheAdaptiveLoop(t *testing.T) {
	idx, err := dkindex.LoadXMLString(doc, nil) // label-split: long paths validate
	if err != nil {
		t.Fatal(err)
	}
	const text = "director.movie.title"
	if _, err := idx.Run(dkindex.Request{Text: text}); err != nil {
		t.Fatal(err)
	}
	srv := New(idx) // starts watching the load: the entry is already cached
	idx.SetAutoPromote(8)
	first, _ := fetchReply(t, srv, "/v1/query?q="+text)
	if !first.CacheHit || first.Cost.Validations == 0 {
		t.Fatalf("want a validating query answered from the cache, got %+v", first)
	}
	if n := idx.ObservedQueries(); n != 1 {
		t.Errorf("ObservedQueries = %d after a hit, want 1", n)
	}
	// Every hit adds its validations to the label's heat; the hit that
	// crosses the threshold promotes, and the request after it is evaluated
	// on the promoted index, soundly.
	var last reply
	for i := 0; i < 9; i++ {
		if last, _ = fetchReply(t, srv, "/v1/query?q="+text); last.Count != 2 {
			t.Fatalf("repeat %d: %+v", i, last)
		}
	}
	if last.Generation == first.Generation || last.Cost.Validations != 0 {
		t.Errorf("ten hits with %d validations each did not auto-promote at threshold 8: %+v",
			first.Cost.Validations, last)
	}
}

// TestShardedBodiesMatchMonolith: the same queries through a monolithic
// index, a one-shard and a four-shard engine give byte-identical bodies, miss
// and hit alike, once the generation — a per-shard sum on the engine — is
// masked; with four shards the cost object is masked too, because each shard
// walks an index of its own and the engine reports the sum. The engine never
// parks (its results are composites), the encoder is the same.
func TestShardedBodiesMatchMonolith(t *testing.T) {
	var docs [][]byte
	for seed := int64(1); seed <= 4; seed++ {
		cfg := datagen.XMarkScale(0.02)
		cfg.Seed = seed
		var buf bytes.Buffer
		if err := datagen.XMark(cfg).WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
	}
	load := func(b Backend) *Server {
		for _, d := range docs {
			acks, err := b.ApplyBatch([]dkindex.Mutation{{Op: dkindex.MutAddDocument, Doc: d, DocOptions: datagen.LoadOptions()}})
			if err != nil || acks[0].Err != nil {
				t.Fatal(err, acks)
			}
		}
		return NewBackend(b)
	}
	servers := map[int]*Server{}
	for _, n := range []int{1, 4} {
		e, err := shard.New(n)
		if err != nil {
			t.Fatal(err)
		}
		servers[n] = load(e)
	}
	g := graph.New()
	g.AddRoot()
	monoSrv := load(dkindex.FromGraph(g, nil))

	generation := regexp.MustCompile(`"generation":\d+`)
	cost := regexp.MustCompile(`"cost":\{[^}]*\}`)
	mask := func(b []byte, shards int) []byte {
		b = generation.ReplaceAll(b, []byte(`"generation":0`))
		if shards > 1 {
			b = cost.ReplaceAll(b, []byte(`"cost":{}`))
		}
		return b
	}
	for _, target := range []string{
		"/v1/query?q=site.people.person.name&limit=7",
		"/v1/query?q=item.name",
		"/v1/query?kind=rpe&q=site.regions._.item&limit=0",
		"/v1/query?kind=twig&q=person%5Bname%5D.emailaddress&limit=3",
		"/v1/query?q=open_auction.bidder",
	} {
		for pass := 0; pass < 3; pass++ {
			code, want := fetch(t, monoSrv, "GET", target, "")
			if code != http.StatusOK {
				t.Fatalf("monolith %s = %d %s", target, code, want)
			}
			for shards, srv := range servers {
				if _, got := fetch(t, srv, "GET", target, ""); !bytes.Equal(mask(got, shards), mask(want, shards)) {
					t.Errorf("%s, pass %d, %d shards:\n got %s\nwant %s", target, pass, shards, got, want)
				}
			}
		}
	}
}
