package dkindex

import (
	"fmt"
	"sync/atomic"
	"time"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
	"dkindex/internal/qcache"
	"dkindex/internal/rpe"
)

// snapshot is one immutable published state of the index. Queries resolve it
// once from the Index handle and work against it without further
// coordination; mutations never touch a published snapshot — they clone what
// they change and publish a successor under the writer mutex.
type snapshot struct {
	dk  *core.DK
	gen uint64
}

// Kind selects a query language for Run.
type Kind string

// The query kinds Run understands. They double as the metric label values
// under which query metrics are reported.
const (
	// KindPath is a simple dotted label path ("director.movie.title") with
	// partial-match semantics.
	KindPath Kind = "path"
	// KindRPE is a regular path expression
	// (l, _, R.R, R|R, (R), R?, R*, and the a//b descendant shorthand).
	KindRPE Kind = "rpe"
	// KindTwig is a branching path query such as "movie[actor.name].title".
	KindTwig Kind = "twig"
)

// Request describes one query for Run.
type Request struct {
	// Kind selects the query language; empty means KindPath.
	Kind Kind
	// Text is the query in the chosen language.
	Text string
	// Limit bounds how many result nodes are returned: 0 returns all of
	// them, a positive value at most that many, and a negative value none at
	// all (a count-only query). Result.Total always reports the full count.
	Limit int
	// Origin identifies the caller for observability — the HTTP server passes
	// the request's X-Request-ID. When this execution is trace-sampled, the
	// origin is stamped onto the trace, linking /traces entries back to the
	// request that produced them. Empty is fine.
	Origin string
	// AcceptBody marks a caller that renders a Result into bytes and would as
	// soon send an earlier rendering of the same answer again — the HTTP
	// server. On a cache hit whose entry holds a body parked (Result.ParkBody)
	// for the same number of listed nodes, the Result carries that body and
	// no Nodes. Callers that leave it false always get Nodes.
	AcceptBody bool
}

// Result is the answer to one Request.
type Result struct {
	// Nodes holds the matching data nodes (sorted), truncated per
	// Request.Limit. The slice is owned by the caller.
	Nodes []NodeID
	// Total is the full result count, regardless of Limit.
	Total int
	// Stats reports the query's cost under the paper's model. For a cache
	// hit it is the cost of the evaluation that populated the cache —
	// costs are deterministic, so the replayed numbers are exact.
	Stats QueryStats
	// CacheHit reports whether the result came from the result cache.
	CacheHit bool
	// Generation identifies the snapshot that answered the query; it
	// increases by one with every index mutation.
	Generation uint64
	// Traced reports whether this execution was sampled by the tracer (cache
	// hits never are — nothing was evaluated).
	Traced bool
	// Body is set only for a Request with AcceptBody, and only on a cache
	// hit: the bytes an earlier such request parked on the cache entry for
	// the same number of listed nodes. Nodes is nil then. The slice is
	// shared; callers must not write to it.
	Body []byte

	// entry, on a cache hit for a Request with AcceptBody, is where ParkBody
	// parks; listed is how many nodes the request's Limit lets it list.
	entry  *cachedResult
	listed int

	g *graph.Graph
	// names, when set, overrides g for label resolution: composite results
	// (CompositeResult) span several indexes, so no single graph can format
	// their node ids.
	names func(NodeID) string
}

// LabelName returns the label of a result node, resolved against the same
// snapshot that produced the result (label ids from one snapshot must not be
// formatted against another's table).
func (r *Result) LabelName(n NodeID) string {
	if r.names != nil {
		return r.names(n)
	}
	if r.g == nil {
		return ""
	}
	return r.g.LabelName(n)
}

// BatchResult pairs one Request's Result with its error in RunBatch output.
type BatchResult struct {
	Result Result
	Err    error
}

// DefaultResultCacheSize is the result cache capacity an Index starts with.
const DefaultResultCacheSize = 4096

// MaxParkedBody is the largest rendering ParkBody keeps on a cache entry;
// a larger one is rendered again on every hit. With one body per entry, a
// full result cache retains at most capacity x MaxParkedBody bytes of them
// (256 MiB at DefaultResultCacheSize) beside the node sets it already holds.
const MaxParkedBody = 64 << 10

// cachedResult is the cache payload: the full result set, the cost of
// computing it and what a hit still needs from the parse, all immutable once
// stored; and one slot for a rendering of the answer, swapped atomically. The
// slot needs no invalidation of its own: the entry belongs to one generation
// of one cache table and the body lives and dies with it.
type cachedResult struct {
	nodes []NodeID
	cost  eval.Cost
	// path is the label sequence of a KindPath query (nil for the other
	// kinds): a hit records it in the load and feeds it to auto-promotion
	// exactly as the evaluation that stored the entry did.
	path eval.Query
	body atomic.Pointer[parkedBody]
}

// parkedBody is one rendering of a cached answer: the bytes, and how many of
// the entry's nodes they list.
type parkedBody struct {
	listed int
	bytes  []byte
}

// ParkBody offers the caller's rendering of r to the cache entry r was read
// from, so that the next Request with AcceptBody and the same number of
// listed nodes gets it back as Result.Body. It copies body. It does nothing
// unless r is such a request's cache hit, or when body is longer than
// MaxParkedBody. The rendering may depend only on r and on the Request's
// Kind and Text, which every request reaching the entry shares.
func (r *Result) ParkBody(body []byte) {
	if r.entry == nil || len(body) > MaxParkedBody {
		return
	}
	r.entry.body.Store(&parkedBody{listed: r.listed, bytes: append([]byte(nil), body...)})
}

// Run evaluates one query against the current snapshot. Results are exact
// (validation against the data removes the index's false positives) and
// sorted. It is safe for any number of concurrent callers, also concurrently
// with mutations: the snapshot is resolved once, so the result is consistent
// even while an update publishes a successor mid-query.
func (x *Index) Run(req Request) (Result, error) {
	return x.runOn(x.handle.Load(), req)
}

// RunBatch evaluates several queries against one snapshot: all results carry
// the same Generation even if mutations land between items. Per-item errors
// are reported in place; the batch always returns len(reqs) entries.
func (x *Index) RunBatch(reqs []Request) []BatchResult {
	s := x.handle.Load()
	out := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		out[i].Result, out[i].Err = x.runOn(s, req)
	}
	return out
}

// Generation returns the current snapshot's generation (0 for a fresh
// index; each mutation increments it).
func (x *Index) Generation() uint64 { return x.handle.Load().gen }

// Generations returns the snapshot generation as a one-element vector. It
// exists so a single index and the sharded engine (internal/shard), whose
// vector has one element per shard, satisfy the same serving interface.
func (x *Index) Generations() []uint64 { return []uint64{x.Generation()} }

// CompositeResult assembles a Result for engines that layer several indexes —
// internal/shard's scatter-gather router merges per-shard results into one.
// nodes must already be merged, sorted and truncated to the request's limit;
// total is the untruncated count; names resolves labels for merged node ids
// (no single snapshot graph can). The caller owns nodes.
func CompositeResult(nodes []NodeID, total int, stats QueryStats, cacheHit, traced bool, gen uint64, names func(NodeID) string) Result {
	return Result{
		Nodes: nodes, Total: total, Stats: stats,
		CacheHit: cacheHit, Traced: traced, Generation: gen, names: names,
	}
}

// SetResultCache replaces the result cache with one holding up to capacity
// entries per snapshot generation; capacity <= 0 disables caching. The new
// cache starts cold.
func (x *Index) SetResultCache(capacity int) {
	if capacity <= 0 {
		x.cache.Store(nil)
		return
	}
	x.cache.Store(qcache.New(capacity))
}

// ResultCacheLen returns how many results are cached for the current
// generation.
func (x *Index) ResultCacheLen() int { return x.cache.Load().Len() }

// runOn evaluates one request against a resolved snapshot. This is the whole
// read hot path: no locks are taken anywhere below — the snapshot is
// immutable, the recorder and the auto-promote heat are atomic-counter
// structures, and the cache is generation-keyed so it needs no invalidation
// protocol here.
func (x *Index) runOn(s *snapshot, req Request) (Result, error) {
	kind := req.Kind
	switch kind {
	case "":
		kind = KindPath
	case KindPath, KindRPE, KindTwig:
	default:
		// Not observed: kinds are caller-chosen strings and would mint
		// unbounded metric label values.
		return Result{}, fmt.Errorf("dkindex: unknown query kind %q", kind)
	}

	// Look the text up before parsing it. Only evaluated results are ever
	// Put, so a key that hits spelled a well-formed query when its entry was
	// stored, and the entry keeps what a hit needs from that parse; malformed
	// text finds nothing and fails in the parse below, before it is counted
	// as a miss or reaches the cache or the recorder.
	key := string(kind) + "\x00" + req.Text
	cache := x.cache.Load()
	if v, ok := cache.Get(s.gen, key); ok {
		cr := v.(*cachedResult)
		x.observer.ObserveCacheHit(string(kind))
		x.observer.ObserveQuery(string(kind), 0, costSample(cr.cost), len(cr.nodes))
		if r := x.recorder.Load(); r != nil {
			r.Record(cr.path)
		}
		// Cache hits still feed auto-promotion: repeats of a validating
		// query are exactly the pressure SetAutoPromote reacts to, and the
		// cached cost carries the validation count of every repeat.
		x.noteValidation(s, cr.path, cr.cost.Validations)
		return s.hit(cr, req), nil
	}

	// Whatever costs more than parsing (compiling an RPE's automata) waits
	// inside the closure, next to the evaluation that needs it.
	ig := s.dk.IG
	labels := ig.Data().Labels()
	var evalFn func(tr *obs.Trace) ([]NodeID, eval.Cost)
	var path eval.Query // stays nil for RPEs and twigs, which feed neither the load nor auto-promotion
	switch kind {
	case KindPath:
		q, err := eval.ParseQuery(labels, req.Text)
		if err != nil {
			x.observer.ObserveQueryError(string(kind))
			return Result{}, err
		}
		if r := x.recorder.Load(); r != nil {
			r.Record(q)
		}
		path = q
		evalFn = func(tr *obs.Trace) ([]NodeID, eval.Cost) {
			return eval.IndexTraced(ig, q, tr)
		}
	case KindRPE:
		e, err := rpe.Parse(req.Text)
		if err != nil {
			x.observer.ObserveQueryError(string(kind))
			return Result{}, err
		}
		evalFn = func(tr *obs.Trace) ([]NodeID, eval.Cost) {
			return eval.IndexRPETraced(ig, rpe.CompileExpr(e, labels), tr)
		}
	case KindTwig:
		tw, err := eval.ParseTwig(labels, req.Text)
		if err != nil {
			x.observer.ObserveQueryError(string(kind))
			return Result{}, err
		}
		evalFn = func(tr *obs.Trace) ([]NodeID, eval.Cost) {
			return eval.IndexTwigTraced(ig, tw, tr)
		}
	}
	x.observer.ObserveCacheMiss(string(kind))

	tr := x.observer.SampleTrace(string(kind), req.Text)
	tr.SetOrigin(req.Origin)
	var begin time.Time
	if x.observer != nil {
		begin = time.Now()
	}
	nodes, cost := evalFn(tr)
	x.noteValidation(s, path, cost.Validations)
	if x.observer != nil {
		x.observer.ObserveQuery(string(kind), time.Since(begin), costSample(cost), len(nodes))
		x.observer.FinishTrace(tr)
		x.observer.SetCacheEntries(cache.Len())
	}
	// Put after noteValidation: if an auto-promotion just bumped the
	// generation, this store is stale and the cache drops it on its own.
	cache.Put(s.gen, key, &cachedResult{nodes: nodes, cost: cost, path: path})
	res := s.result(len(nodes), cost, false)
	res.Nodes = append([]NodeID(nil), nodes[:listed(req.Limit, len(nodes))]...)
	res.Traced = tr != nil
	return res, nil
}

// listed applies the Limit semantics to a result of total nodes: how many of
// them a Result lists.
func listed(limit, total int) int {
	switch {
	case limit < 0:
		return 0 // count-only
	case limit == 0 || limit > total:
		return total
	}
	return limit
}

// result starts the Result of an answer of total nodes; the caller adds the
// nodes it lists, as a copy of its own (the evaluated slice goes to the cache,
// shared and immutable).
func (s *snapshot) result(total int, cost eval.Cost, hit bool) Result {
	return Result{
		Total:      total,
		Stats:      fromCost(cost),
		CacheHit:   hit,
		Generation: s.gen,
		g:          s.dk.IG.Data(),
	}
}

// hit assembles the Result of a cache hit. A Request with AcceptBody gets
// the entry's parked body when it lists as many nodes as the request would
// (and then no copy of the nodes), and otherwise the means to park one.
func (s *snapshot) hit(cr *cachedResult, req Request) Result {
	res := s.result(len(cr.nodes), cr.cost, true)
	n := listed(req.Limit, len(cr.nodes))
	if req.AcceptBody {
		if pb := cr.body.Load(); pb != nil && pb.listed == n {
			res.Body = pb.bytes
			return res
		}
		res.entry, res.listed = cr, n
	}
	res.Nodes = append([]NodeID(nil), cr.nodes[:n]...)
	return res
}
