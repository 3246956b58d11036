package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"dkindex"
	"dkindex/internal/experiments"
)

// tunedXMarkServer serves the load-tuned D(k)-index of XMark at the given
// scale, as the benchmark's read workloads do.
func tunedXMarkServer(tb testing.TB, scale float64) (*Server, *dkindex.Index) {
	tb.Helper()
	ds, err := experiments.XMarkDataset(scale, 1)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make(map[string]int)
	for l, k := range ds.W.Requirements() {
		reqs[ds.G.Labels().Name(l)] = k
	}
	idx := dkindex.FromGraph(ds.G, reqs)
	return New(idx), idx
}

// nullWriter is a ResponseWriter that keeps nothing and, reset between
// requests, allocates nothing of its own: what a request allocates is the
// server's doing.
type nullWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header  { return w.hdr }
func (w *nullWriter) WriteHeader(code int) { w.status = code }
func (w *nullWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
func (w *nullWriter) reset() { clear(w.hdr); w.status, w.n = 0, 0 }

// serveInto sends one prepared request through the handler and fails unless
// it answers 200 with a body.
func serveInto(tb testing.TB, h http.Handler, w *nullWriter, r *http.Request) {
	w.reset()
	h.ServeHTTP(w, r)
	if w.status != http.StatusOK || w.n == 0 {
		tb.Fatalf("%s = %d with %d body bytes", r.URL, w.status, w.n)
	}
}

// TestHotReadAllocatesNoBody pins "a cache hit is a lookup and a write": a
// warmed query through ServeHTTP allocates six small objects (the request ID,
// two header values — X-Request-ID and Content-Type — the status writer, the
// cache key, the recorder's key) and the same number whether its body lists
// ten rows or a thousand. With reflected rows a hit allocated 22-23 times and
// bytes in proportion to limit.
func TestHotReadAllocatesNoBody(t *testing.T) {
	srv, _ := tunedXMarkServer(t, 0.25)
	w := &nullWriter{hdr: make(http.Header)}
	hitAllocs := func(target string) (allocs float64, bodyLen int) {
		r := httptest.NewRequest("GET", target, nil)
		for i := 0; i < 3; i++ { // the miss, the hit that parks the body, a hit served from it
			serveInto(t, srv, w, r)
		}
		return testing.AllocsPerRun(200, func() { serveInto(t, srv, w, r) }), w.n
	}
	for _, q := range []string{"kind=path&q=site.people.person.name", "kind=rpe&q=site%2F%2Fitem.name", "kind=twig&q=item%5Blocation%5D.name"} {
		small, smallLen := hitAllocs("/v1/query?" + q + "&limit=10")
		large, largeLen := hitAllocs("/v1/query?" + q + "&limit=1000")
		t.Logf("%s: %.0f allocations per hit at limit=10 (%d-byte body), %.0f at limit=1000 (%d bytes)", q, small, smallLen, large, largeLen)
		if largeLen < 10*smallLen {
			t.Fatalf("%s: bodies of %d and %d bytes: the limits list too few rows to tell", q, smallLen, largeLen)
		}
		if small > 6 || large != small {
			t.Errorf("%s: a hit allocates %.0f times at limit=10 and %.0f at limit=1000, want the same and at most 6", q, small, large)
		}
	}
}

func benchScale() float64 {
	if s := os.Getenv("DK_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 1.0
}

// benchServeQuery drives GET /v1/query for a 100-row path query through
// ServeHTTP from one goroutine, with the result cache as given.
func benchServeQuery(b *testing.B, cache int) {
	srv, idx := tunedXMarkServer(b, benchScale())
	idx.SetResultCache(cache)
	w := &nullWriter{hdr: make(http.Header)}
	r := httptest.NewRequest("GET", "/v1/query?kind=path&q=site.people.person.name&limit=100", nil)
	for i := 0; i < 3; i++ {
		serveInto(b, srv, w, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveInto(b, srv, w, r)
	}
}

// BenchmarkServeQueryHit is the hot read: every request is a result-cache hit
// served from the body parked on the entry.
func BenchmarkServeQueryHit(b *testing.B) { benchServeQuery(b, dkindex.DefaultResultCacheSize) }

// BenchmarkServeQueryMiss is the same request with the result cache off:
// parse, evaluate, encode the rows into the pooled buffer.
func BenchmarkServeQueryMiss(b *testing.B) { benchServeQuery(b, 0) }

// BenchmarkServeQueryStore is a validating miss with the result cache on:
// parse, compile, evaluate, keep the answer in the cache and encode 100 rows.
// Each request finds an empty cache, swapped in outside the timer, so every
// one is a miss that stores its answer.
func BenchmarkServeQueryStore(b *testing.B) {
	srv, idx := tunedXMarkServer(b, benchScale())
	w := &nullWriter{hdr: make(http.Header)}
	r := httptest.NewRequest("GET", "/v1/query?kind=rpe&q=site%2F%2Fname&limit=100", nil)
	serveInto(b, srv, w, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx.SetResultCache(dkindex.DefaultResultCacheSize)
		b.StartTimer()
		serveInto(b, srv, w, r)
	}
	if idx.ResultCacheLen() != 1 {
		b.Fatalf("the cache holds %d entries after a miss, want 1", idx.ResultCacheLen())
	}
}
