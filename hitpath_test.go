package dkindex

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
	"dkindex/internal/obs/promtest"
)

// TestParkedBodyContract walks the body slot of a cache entry through its
// life at the library surface: only a cache hit of a Request with AcceptBody
// can park, only such a request with the same number of listed nodes gets the
// body back (and then no Nodes), every other caller sees the Result it always
// saw, and the body dies with the entry's generation.
func TestParkedBodyContract(t *testing.T) {
	idx := open(t)
	plain := Request{Text: "movie.title", Limit: 2}
	asking := plain
	asking.AcceptBody = true
	run := func(req Request) Result {
		t.Helper()
		res, err := idx.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	miss := run(asking)
	if miss.CacheHit || miss.Body != nil || len(miss.Nodes) != 2 || miss.Total != 3 {
		t.Fatalf("miss: %+v", miss)
	}
	miss.ParkBody([]byte("from the miss")) // a miss renders cacheHit=false: never parked
	first := run(asking)
	if !first.CacheHit || first.Body != nil || !slices.Equal(first.Nodes, miss.Nodes) {
		t.Fatalf("first hit should list nodes and carry no body: %+v", first)
	}
	rendering := []byte("two titles")
	first.ParkBody(rendering)
	rendering[0] = 'X' // ParkBody copied

	second := run(asking)
	if !second.CacheHit || string(second.Body) != "two titles" || second.Nodes != nil {
		t.Fatalf("second hit should be the parked body and no nodes: body %q nodes %v", second.Body, second.Nodes)
	}
	if second.Total != 3 || second.Stats != miss.Stats || second.Generation != miss.Generation {
		t.Errorf("a body hit lost its metadata: %+v", second)
	}

	// A library caller never asked: it gets nodes, body or no body.
	if lib := run(plain); lib.Body != nil || !slices.Equal(lib.Nodes, miss.Nodes) || !lib.CacheHit {
		t.Errorf("library Run after a park: body %q nodes %v", lib.Body, lib.Nodes)
	}
	lib := run(plain)
	lib.ParkBody([]byte("from the library")) // and cannot park
	if again := run(asking); string(again.Body) != "two titles" {
		t.Errorf("a Result that did not ask replaced the parked body with %q", again.Body)
	}

	// Another limit lists other rows: no body, and its own park replaces
	// the slot; the first limit then renders again.
	other := asking
	other.Limit = 1
	if res := run(other); res.Body != nil || len(res.Nodes) != 1 {
		t.Fatalf("limit 1 after a limit-2 park: body %q nodes %v", res.Body, res.Nodes)
	} else {
		res.ParkBody([]byte("one title"))
	}
	if res := run(other); string(res.Body) != "one title" {
		t.Errorf("limit 1 repeat: body %q", res.Body)
	}
	if res := run(asking); res.Body != nil || len(res.Nodes) != 2 {
		t.Errorf("limit 2 after a limit-1 park: body %q nodes %v", res.Body, res.Nodes)
	}
	// Count-only lists nothing, whatever was parked.
	countOnly := asking
	countOnly.Limit = -1
	if res := run(countOnly); res.Body != nil || res.Nodes != nil || res.Total != 3 {
		t.Errorf("count-only after a park: %+v", res)
	}
	// Limits that list the same rows share the body: 3, 50 and "all" each
	// list the three titles.
	for i, limit := range []int{3, 50, 0} {
		req := asking
		req.Limit = limit
		res := run(req)
		if i == 0 {
			if res.Body != nil || len(res.Nodes) != 3 {
				t.Fatalf("limit 3: body %q nodes %v", res.Body, res.Nodes)
			}
			res.ParkBody([]byte("all three"))
		} else if string(res.Body) != "all three" {
			t.Errorf("limit %d lists the same three rows but got body %q", limit, res.Body)
		}
	}

	// Too large to keep: rendered again on every hit.
	big := run(countOnly)
	big.ParkBody(bytes.Repeat([]byte{'x'}, MaxParkedBody+1))
	if res := run(countOnly); res.Body != nil {
		t.Errorf("a body of MaxParkedBody+1 bytes was kept")
	}
	big.ParkBody(bytes.Repeat([]byte{'x'}, MaxParkedBody))
	if res := run(countOnly); len(res.Body) != MaxParkedBody {
		t.Errorf("a body of exactly MaxParkedBody bytes was not kept")
	}

	// A commit retires the generation and every body with it.
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 2}); err != nil {
		t.Fatal(err)
	}
	fresh := run(countOnly)
	if fresh.CacheHit || fresh.Body != nil || fresh.Generation != miss.Generation+1 {
		t.Errorf("after a commit: %+v", fresh)
	}
	if res := run(countOnly); res.Body != nil {
		t.Errorf("the new generation's entry was born with a body: %q", res.Body)
	}
	// A Result from the retired generation parks on its own retired entry:
	// harmless, and invisible to the new one.
	big.ParkBody([]byte("stale"))
	if res := run(countOnly); res.Body != nil {
		t.Errorf("a retired Result parked %q on the live entry", res.Body)
	}
}

// TestCacheHitKeepsTheSideEffectsOfAParse: a hit is looked up before it is
// parsed, so what the parse used to feed — the load recorder, the cache
// counters — must come from the entry; and text that fails to parse after the
// lookup found nothing counts as an error, not as a hit or a miss.
func TestCacheHitKeepsTheSideEffectsOfAParse(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)
	// Cached before anyone watches the load: the three repeats below are
	// hits, and all the recorder ever sees of this query.
	const q = "director.movie.title"
	if _, err := idx.Run(Request{Text: q}); err != nil {
		t.Fatal(err)
	}
	idx.WatchLoad()
	for i := 0; i < 3; i++ {
		res, err := idx.Run(Request{Text: q, AcceptBody: i > 0})
		if err != nil || !res.CacheHit {
			t.Fatalf("repeat %d: err %v hit %v", i, err, res.CacheHit)
		}
		res.ParkBody([]byte("body")) // the last repeat is served from it
	}
	if n := idx.ObservedQueries(); n != 1 {
		t.Errorf("ObservedQueries = %d after three hits of one path, want 1", n)
	}
	if total := idx.recorder.Load().Total(); total != 3 {
		t.Errorf("the recorder saw %d executions, want the 3 hits", total)
	}
	// RPE and twig hits record nothing, as their evaluations record nothing.
	for _, req := range []Request{{Kind: KindRPE, Text: "director//title"}, {Kind: KindTwig, Text: "movie[title]"}} {
		for i := 0; i < 2; i++ {
			if _, err := idx.Run(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if total := idx.recorder.Load().Total(); total != 3 {
		t.Errorf("rpe/twig hits moved the recorder to %d", total)
	}

	counters := func() (hits, misses, errs float64) {
		t.Helper()
		var sb strings.Builder
		if err := o.Registry.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		fams, err := promtest.Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		sum := func(name string) (v float64) {
			for _, s := range fams[name].Samples {
				v += s.Value
			}
			return v
		}
		return sum(obs.CacheHits.Name), sum(obs.CacheMisses.Name), sum(obs.QueryErrors.Name)
	}
	// A label may hold any byte but a dot, the key separator included.
	if _, err := idx.Run(Request{Text: "a\x00b"}); err != nil {
		t.Fatal(err)
	}
	hits, misses, errs := counters()
	if hits != 5 || misses != 4 {
		t.Fatalf("hits/misses = %v/%v, want 5/4", hits, misses)
	}
	for _, bad := range []Request{
		{Text: "director..title"}, {Text: ""},
		{Kind: KindRPE, Text: "(director"}, {Kind: KindTwig, Text: "movie["},
	} {
		if _, err := idx.Run(bad); err == nil {
			t.Fatalf("%q accepted", bad.Text)
		}
	}
	if _, err := idx.Run(Request{Kind: "path\x00a", Text: "b"}); err == nil {
		t.Fatal("an unknown kind that spells a cached query's key was answered from the cache")
	}
	h2, m2, e2 := counters()
	if h2 != hits || m2 != misses {
		t.Errorf("malformed queries moved hits/misses from %v/%v to %v/%v", hits, misses, h2, m2)
	}
	if e2 != errs+4 {
		t.Errorf("query errors went from %v to %v, want +4", errs, e2)
	}
	if n := idx.Stats().CachedResults; n != 4 {
		t.Errorf("the cache holds %d entries, want the 4 well-formed queries", n)
	}
}

// TestCachedAnswerOwnsItsHits: an evaluated answer borrows its validated
// hits from pooled scratch until Run releases it, so the answer a miss
// stores in the result cache must be a copy that owns them. The test misses
// a validating RPE, lets more than fifty other validating misses and a
// RunBatch refill that scratch, and then reads the first answer back from
// the cache, whole and as a prefix, against the data graph.
func TestCachedAnswerOwnsItsHits(t *testing.T) {
	ds, idx := tunedXMark(t, 0.25)
	const text = "site//name"
	want, _ := eval.DataRPE(ds.G, compileRPE(t, text, ds.G.Labels()))
	first, err := idx.Run(Request{Kind: KindRPE, Text: text, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Stats.Validations == 0 || first.Total != len(want) {
		t.Fatalf("%s: want a validating miss of %d nodes, got %d nodes, %+v, hit %v", text, len(want), first.Total, first.Stats, first.CacheHit)
	}

	labels := ds.G.Labels()
	var others []Request
	for l := range labels.Len() {
		if name := labels.Name(graph.LabelID(l)); name != "name" {
			others = append(others, Request{Kind: KindRPE, Text: "site//" + name, Limit: 5})
		}
	}
	validating := 0
	for _, req := range others {
		res, err := idx.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit && res.Stats.Validations > 0 && res.Total > 0 {
			validating++
		}
	}
	if validating < 50 {
		t.Fatalf("%d validating misses with an answer refilled the scratch, want at least 50", validating)
	}
	batch := []Request{
		{Kind: KindTwig, Text: "person[emailaddress].name"},
		{Kind: KindTwig, Text: "item[location].name"},
		{Kind: KindRPE, Text: "people//emailaddress"},
	}
	for _, br := range idx.RunBatch(batch) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
	}

	for _, limit := range []int{0, 7} {
		res, err := idx.Run(Request{Kind: KindRPE, Text: text, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		n := len(want)
		if limit > 0 {
			n = limit
		}
		if !res.CacheHit || res.Total != len(want) || !slices.Equal(res.Nodes, want[:n]) {
			t.Errorf("limit %d: the cached answer (hit %v, total %d) lists %v..., want the first %d of the data graph's %d nodes %v...",
				limit, res.CacheHit, res.Total, res.Nodes[:min(len(res.Nodes), 7)], n, len(want), want[:min(n, 7)])
		}
	}
}
