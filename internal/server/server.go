// Package server exposes a D(k)-index over HTTP with a small JSON API. Every
// route lives under /v1, every read is a query and every write a mutation:
//
//	GET  /v1/query?kind=path&q=a.b.c    one query (kind: path|rpe|twig)
//	POST /v1/query {"queries":[...]}    batch: every item answers from one snapshot
//	POST /v1/mutate   {"op":...} or {"mutations":[...]}  the write endpoint: ops
//	                                    add_edge, remove_edge, add_document,
//	                                    promote, demote, set_requirements,
//	                                    optimize, compact (?ack=sync|async; acks
//	                                    carry seq, watermark and generation)
//	POST /v1/documents  (XML body)      raw-XML ingest: one add_document whose
//	                                    body is the document itself, up to 64 MiB
//	GET  /v1/watermark                  write-pipeline progress
//	GET  /v1/stats                      index statistics (incl. snapshot generation)
//	GET  /v1/explain?path=a.b.c         per-index-node query explanation
//	GET  /v1/healthz                    liveness
//	GET  /v1/readyz                     readiness
//	GET  /v1/metrics                    Prometheus text exposition
//	GET  /v1/events?n=100&since=0       index lifecycle event stream
//	GET  /v1/traces?n=50                recent sampled query traces
//	GET  /v1/slow?n=10                  slow-query log (top-N by latency)
//	GET  /v1/repl/checkpoint, /v1/repl/wal   replication feed (see repl.go)
//
// The table in routes is the whole surface: it feeds the mux and the label
// set of the per-route RED metrics, and anything off it answers 404 under
// route="other".
//
// Every response echoes (or mints) an X-Request-ID header; sampled traces and
// slow-log entries carry the same ID, so one slow request links from client
// log to trace to cost counters. Errors are structured:
// {"error": "...", "code": "bad_query|bad_request|too_large|internal|...", "requestId": "..."}.
// A write the log could not make durable answers 500 internal (retry it); a
// write the index rejected answers 400 bad_request.
//
// The server carries no locks of its own: the index serves queries from
// atomic snapshots and serializes mutations internally, so handlers call it
// directly and queries are never blocked — not by each other and not by
// updates (the slow-query log turns a request away on two atomics unless it
// is slow enough to be kept). Every path query is recorded (lock-free) so
// the optimize mutation can re-tune the index to the live load.
//
// The two query endpoints share one append-style encoder (encode.go) that
// writes a response straight from the result's nodes and label table into a
// pooled buffer, and GET reads its parameters off the raw query string.
// They ask the index for bodies (Request.AcceptBody): the first cache hit of
// an entry parks its encoded response on the entry, and later hits that list
// as many rows are a lookup and a write, with nothing parsed, copied or
// encoded. The body lives exactly as long as the generation-keyed cache
// entry, so the server keeps no cache of its own.
//
// The server adopts the index's observer (attaching a fresh one when the
// index is unobserved), so /v1/metrics and /v1/events work out of the box;
// EnablePprof optionally mounts net/http/pprof under /debug/pprof/.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dkindex"
	"dkindex/internal/obs"
)

// Error codes carried in structured error responses.
const (
	codeBadQuery   = "bad_query"
	codeBadRequest = "bad_request"
	codeTooLarge   = "too_large"
	codeOverloaded = "overloaded"
	codeNotReady   = "not_ready"
	codeInternal   = "internal"
	codeReadOnly   = "read_only"
	codeGone       = "gone"
)

// Backend is what the handlers serve: the query, mutation and introspection
// surface of a *dkindex.Index, or of a wrapper that embeds one (the benchmark
// module's traced run times the calls this way). The index is lock-free for
// readers and serializes writers internally, so the server needs no locks.
type Backend interface {
	Run(dkindex.Request) (dkindex.Result, error)
	RunBatch([]dkindex.Request) []dkindex.BatchResult
	Stats() dkindex.Stats
	ObservedQueries() int
	Explain(path string) (*dkindex.Explanation, error)

	ApplyBatch([]dkindex.Mutation) ([]dkindex.Ack, error)
	ApplyBatchAsync([]dkindex.Mutation) ([]dkindex.Ack, error)

	Watermark() uint64
	LastSeq() uint64
	Generation() uint64

	WatchLoad()
	Observer() *obs.Observer
	Observe(*obs.Observer)
}

// Server wraps a backend with the HTTP handlers. It holds no locks: the
// backend's snapshot architecture makes every call safe concurrently.
type Server struct {
	idx Backend
	mux *http.ServeMux
	obs *obs.Observer
	// red holds the pre-registered per-route RED metric bundles, keyed by
	// the paths of the route table; redOther catches everything off it.
	red      map[string]*routeRED
	redOther *routeRED

	// inflight, when SetMaxInFlight arms it, bounds concurrently served
	// requests; requests beyond the bound are shed with 503 + Retry-After
	// instead of queueing without limit. Probe routes bypass it.
	inflight chan struct{}
	// readyCheck, when SetReadyCheck installs it, backs /v1/readyz: nil
	// error means ready. Liveness (/healthz) stays unconditional.
	readyCheck func() error

	// replSrc, when SetReplSource attaches one, backs the /v1/repl/* feed a
	// primary ships its WAL from. replicaPrimary/replicaStatus, when
	// SetReplicaMode installs them, make this server a read-only replica:
	// mutations are rejected toward the primary and every response carries
	// the replica's staleness watermark.
	replSrc        *dkindex.Store
	replicaPrimary string
	replicaStatus  func() (applied, head uint64)
}

// New wraps idx; the server starts watching the query load immediately. The
// index's observer, when attached, backs /metrics and /events; an unobserved
// index gets a fresh observer so the endpoints always serve.
func New(idx *dkindex.Index) *Server { return NewBackend(idx) }

// NewBackend wraps a Backend with the same HTTP surface New serves.
func NewBackend(idx Backend) *Server {
	idx.WatchLoad()
	o := idx.Observer()
	if o == nil {
		o = obs.NewObserver()
		idx.Observe(o)
	}
	s := &Server{idx: idx, mux: http.NewServeMux(), obs: o,
		red: make(map[string]*routeRED), redOther: newRouteRED(o.Registry, "other")}
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.method+" "+rt.path, rt.handler)
		if s.red[rt.path] == nil {
			s.red[rt.path] = newRouteRED(o.Registry, rt.path)
		}
	}
	return s
}

// route is one row of the server's HTTP surface.
type route struct {
	method, path string
	handler      http.HandlerFunc
}

// routes is the whole surface, written once: NewBackend mounts every row on
// the mux and pre-registers one RED bundle per distinct path, so the paths
// here are also the route label values on /v1/metrics (plus "other").
func (s *Server) routes() []route {
	return []route{
		{"GET", "/v1/healthz", s.handleHealth},
		{"GET", "/v1/readyz", s.handleReady},
		{"GET", "/v1/stats", s.handleStats},
		{"GET", "/v1/query", s.handleQuery},
		{"POST", "/v1/query", s.handleQueryBatch},
		{"GET", "/v1/explain", s.handleExplain},
		{"POST", "/v1/mutate", s.handleMutate},
		{"POST", "/v1/documents", s.handleDocument},
		{"GET", "/v1/watermark", s.handleWatermark},
		{"GET", "/v1/repl/checkpoint", s.handleReplCheckpoint},
		{"GET", "/v1/repl/wal", s.handleReplWAL},
		{"GET", "/v1/metrics", s.handleMetrics},
		{"GET", "/v1/events", s.handleEvents},
		{"GET", "/v1/traces", s.handleTraces},
		{"GET", "/v1/slow", s.handleSlow},
	}
}

// SetMaxInFlight bounds how many requests are served concurrently; excess
// requests are shed immediately with 503 and a Retry-After hint rather than
// piling up. n <= 0 removes the bound. Probe routes (healthz, readyz) are
// never shed. Call before serving traffic.
func (s *Server) SetMaxInFlight(n int) {
	if n <= 0 {
		s.inflight = nil
		return
	}
	s.inflight = make(chan struct{}, n)
}

// SetReadyCheck installs the readiness probe behind /v1/readyz: a nil error
// means ready to serve. Call before serving traffic; without a check the
// endpoint always reports ready.
func (s *Server) SetReadyCheck(f func() error) { s.readyCheck = f }

// probeRoute reports whether the request is a liveness/readiness probe,
// which must answer even when the server is saturated.
func probeRoute(path string) bool {
	return path == "/v1/healthz" || path == "/v1/readyz"
}

// ServeHTTP implements http.Handler: the RED middleware. It stamps the
// request ID onto the response, counts the request and its in-flight
// occupancy, sheds it if the in-flight bound is hit, converts handler panics
// into 500s instead of letting one poisoned request tear down the connection,
// and records the latency and error class per route on the way out.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Echo (or mint) the request ID before dispatch and hand it to the
	// handlers on the writer, so every body — including shed and panic
	// responses — is attributable in client logs.
	id := requestID(r)
	w.Header().Set(headerRequestID, id)
	s.replicaLagHeader(w)
	m := s.red[r.URL.Path]
	if m == nil {
		m = s.redOther
	}
	m.requests.Inc()
	m.inflight.Add(1)
	sw := &statusWriter{ResponseWriter: w, requestID: id}
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			s.obs.ObserveHTTPPanic()
			// The handler may have written already; this is best-effort.
			writeError(sw, http.StatusInternalServerError, codeInternal,
				fmt.Errorf("internal error"))
		}
		m.inflight.Add(-1)
		m.duration.Observe(time.Since(start).Seconds())
		switch {
		case sw.status >= 500:
			m.err5xx.Inc()
		case sw.status >= 400:
			m.err4xx.Inc()
		}
	}()
	if s.inflight != nil && !probeRoute(r.URL.Path) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.obs.ObserveHTTPShed()
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusServiceUnavailable, codeOverloaded,
				fmt.Errorf("server at capacity, retry shortly"))
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.readyCheck != nil {
		if err := s.readyCheck(); err != nil {
			writeError(w, http.StatusServiceUnavailable, codeNotReady, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.idx.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataNodes":       st.DataNodes,
		"dataEdges":       st.DataEdges,
		"indexNodes":      st.IndexNodes,
		"indexEdges":      st.IndexEdges,
		"maxK":            st.MaxK,
		"generation":      st.Generation,
		"cachedResults":   st.CachedResults,
		"observedQueries": s.idx.ObservedQueries(),
	})
}

// defaultListed and maxListed bound how many results a query response
// lists: defaultListed when the request carries no limit= parameter,
// maxListed no matter what it asks for (count always reports the full
// result size).
const (
	defaultListed = 1000
	maxListed     = 10000
)

// maxBatchQueries bounds one POST /v1/query body.
const maxBatchQueries = 256

// parseLimit maps the HTTP limit parameter onto Request.Limit: absent means
// defaultListed, an explicit 0 means "count only" (dkindex.Request uses a
// negative limit for that), anything else is clamped to maxListed.
func parseLimit(ls string) (int, error) {
	if ls == "" {
		return defaultListed, nil
	}
	v, err := strconv.Atoi(ls)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("limit= must be a non-negative integer")
	}
	if v == 0 {
		return -1, nil
	}
	return min(v, maxListed), nil
}

// handleQuery answers GET /v1/query: it reads kind=, q= and limit= off the
// raw query string, runs the request, offers the execution to the slow-query
// log with its cost counters, and writes the response. The request ID goes
// onto the query as its origin, so a sampled trace links back to the request.
// A cache hit whose entry holds the body an earlier request sent is a lookup
// and a write; anything else is encoded into a pooled buffer and offered to
// the entry.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.RawQuery
	limit, err := parseLimit(queryParam(raw, "limit"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	text := queryParam(raw, "q")
	if text == "" {
		writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("q= is required"))
		return
	}
	kind := dkindex.Kind(queryParam(raw, "kind"))
	switch kind {
	case "":
		kind = dkindex.KindPath
	case dkindex.KindPath, dkindex.KindRPE, dkindex.KindTwig:
	default:
		writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("kind= must be path, rpe or twig"))
		return
	}
	req := dkindex.Request{Kind: kind, Text: text, Limit: limit, Origin: requestIDOf(w), AcceptBody: true}
	start := time.Now()
	res, err := s.idx.Run(req)
	entry := obs.SlowEntry{
		Time:      start,
		RequestID: req.Origin,
		Route:     r.URL.Path,
		Method:    r.Method,
		Kind:      string(req.Kind),
		Query:     req.Text,
		Duration:  time.Since(start),
	}
	if err != nil {
		entry.Status = http.StatusBadRequest
		s.obs.Slow.Add(entry)
		writeError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	entry.Status = http.StatusOK
	entry.CacheHit = res.CacheHit
	entry.Traced = res.Traced
	entry.Generation = res.Generation
	entry.IndexNodesVisited = res.Stats.IndexNodesVisited
	entry.DataNodesValidated = res.Stats.DataNodesValidated
	entry.Validations = res.Stats.Validations
	entry.Results = res.Total
	s.obs.Slow.Add(entry)
	if res.Body != nil {
		writeBody(w, http.StatusOK, res.Body)
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	// Append into the buffer's spare capacity; the Write keeps whatever the
	// append had to grow, so the pool's buffers settle at body size.
	buf.Write(appendResult(buf.AvailableBuffer(), req.Kind, req.Text, &res))
	writeBody(w, http.StatusOK, buf.Bytes())
}

// batchQuery is one item of a POST /v1/query body.
type batchQuery struct {
	Kind  string `json:"kind"`
	Q     string `json:"q"`
	Limit *int   `json:"limit"`
}

// handleQueryBatch answers every query in the body from one snapshot: all
// items carry the same generation even if mutations land mid-batch.
// Per-item errors are reported in place so one bad query does not void the
// rest of the batch.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Queries []batchQuery `json:"queries"`
	}
	if err := decodeJSON(w, r, &body); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(body.Queries) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("queries must not be empty"))
		return
	}
	if len(body.Queries) > maxBatchQueries {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Errorf("at most %d queries per batch", maxBatchQueries))
		return
	}
	reqID := requestIDOf(w)
	reqs := make([]dkindex.Request, len(body.Queries))
	for i, bq := range body.Queries {
		limit := defaultListed
		if bq.Limit != nil {
			if *bq.Limit < 0 {
				writeError(w, http.StatusBadRequest, codeBadRequest,
					fmt.Errorf("queries[%d]: limit must be non-negative", i))
				return
			}
			if *bq.Limit == 0 {
				limit = -1
			} else {
				limit = min(*bq.Limit, maxListed)
			}
		}
		kind := dkindex.Kind(bq.Kind)
		if kind == "" {
			kind = dkindex.KindPath
		}
		reqs[i] = dkindex.Request{Kind: kind, Text: bq.Q, Limit: limit, Origin: reqID, AcceptBody: true}
	}
	start := time.Now()
	batch := s.idx.RunBatch(reqs)
	// The batch enters the slow log as one entry (items are not individually
	// timed); the aggregated cost counters still attribute the work.
	bentry := obs.SlowEntry{
		Time: start, RequestID: reqID, Route: r.URL.Path, Method: r.Method,
		Kind: "batch", Query: fmt.Sprintf("%d queries", len(reqs)),
		Status: http.StatusOK, Duration: time.Since(start),
	}
	for i := range batch {
		if batch[i].Err != nil {
			continue
		}
		res := &batch[i].Result
		bentry.Generation = res.Generation
		bentry.Traced = bentry.Traced || res.Traced
		bentry.IndexNodesVisited += res.Stats.IndexNodesVisited
		bentry.DataNodesValidated += res.Stats.DataNodesValidated
		bentry.Validations += res.Stats.Validations
		bentry.Results += res.Total
	}
	s.obs.Slow.Add(bentry)

	// The envelope is what encoding/json wrote for the map {"generation":
	// g, "results": items}; an item is a single-query body less its newline.
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	b := append(buf.AvailableBuffer(), `{"generation":`...)
	b = strconv.AppendUint(b, bentry.Generation, 10)
	b = append(b, `,"results":[`...)
	for i := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		if err := batch[i].Err; err != nil {
			b = appendQueryError(b, err)
			continue
		}
		b = appendResult(b, reqs[i].Kind, reqs[i].Text, &batch[i].Result)
		b = b[:len(b)-1]
	}
	buf.Write(append(b, "]}\n"...))
	writeBody(w, http.StatusOK, buf.Bytes())
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	if path == "" {
		writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("path= is required"))
		return
	}
	e, err := s.idx.Explain(path)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// bufPool recycles the request/response staging buffers: decoding drains the
// body into a pooled buffer and encoding renders into one before a single
// Write, so the JSON plumbing stops allocating per request.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxJSONBody bounds JSON request bodies (XML documents have their own,
// larger bound in handleDocument).
const maxJSONBody = 1 << 20

// errTooLarge marks a request body that exceeded its bound.
var errTooLarge = errors.New("request body too large")

// bodyReadError names a failed read of a request body bounded by
// http.MaxBytesReader: errTooLarge past the bound, for writeDecodeError.
func bodyReadError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return errTooLarge
	}
	return fmt.Errorf("bad request body: %w", err)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	// MaxBytesReader (rather than a bare LimitReader) also closes the body
	// and tells the HTTP server to stop reading the connection, so an
	// oversized body cannot be streamed in indefinitely.
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxJSONBody)); err != nil {
		return bodyReadError(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encoding failed","code":"internal"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody sends an encoded JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	body := map[string]string{"error": err.Error(), "code": code}
	// Every error body carries the ID the middleware put on the response, so
	// the client can grep its logs for it.
	if id := requestIDOf(w); id != "" {
		body["requestId"] = id
	}
	writeJSON(w, status, body)
}

// writeDecodeError renders a failure to read or decode a request body: 413
// for oversized bodies, 400 for everything else.
func writeDecodeError(w http.ResponseWriter, err error) {
	if errors.Is(err, errTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, err)
}
