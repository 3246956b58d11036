// Package dkindex implements the D(k)-index (Chen, Lim, Ong — SIGMOD 2003),
// an adaptive structural summary for graph-structured XML and
// semi-structured data, together with the structural summaries it
// generalizes: the label-split graph, the A(k)-index and the 1-index.
//
// A structural summary partitions the nodes of a data graph into extents so
// that path expressions can be evaluated over the much smaller index graph.
// The D(k)-index assigns each index node its own local similarity k(n) —
// node n answers path queries up to length k(n) exactly, longer ones are
// validated against the data — and tunes those similarities from the query
// load, subject to the structural invariant k(parent) >= k(child)-1. Unlike
// its static predecessors it supports cheap incremental update: edge
// additions only decay similarities (never split extents), document
// insertions reuse the existing index, and the promoting/demoting processes
// re-tune the index as the query load drifts.
//
// # Quick start
//
//	idx, err := dkindex.LoadXML(file, nil)
//	if err != nil { ... }
//	idx.Tune(100, 42)                         // mine a query load, or Apply MutSetRequirements
//	res, err := idx.Run(dkindex.Request{Text: "director.movie.title"})
//	ack, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: 3, To: 9})
//
// Every read is a Request given to Run (or RunBatch); every write is a
// Mutation given to Apply (or ApplyBatch, and their Async forms). There is no
// second spelling of either.
//
// # Concurrency
//
// The index serves reads from immutable snapshots: Run resolves the current
// snapshot with one atomic load and never takes a lock, so any number of
// queries may run concurrently with each other and with mutations. Mutations
// (Apply, ApplyBatch, Tune, Reload) serialize on an internal writer mutex,
// build the successor state on private copies and publish it atomically,
// bumping the snapshot generation; in-flight queries keep reading the snapshot
// they resolved. Every state change — compaction and auto-promotion included —
// is a Mutation settled by one commit function; Reload is the one swap that
// is neither sequenced nor journalled, which is why a store-managed index
// refuses it. Repeated queries are answered from a
// generation-keyed result cache that a mutation invalidates wholesale by
// virtue of the bump. The cache is consulted before the query text is parsed;
// an entry carries what a hit needs of the parse and, for callers that render
// results into bytes (Request.AcceptBody, Result.ParkBody — the HTTP server),
// one rendering of the answer, at most MaxParkedBody bytes, that lives and
// dies with the entry.
//
// The package is a facade over the internal packages; power users can reach
// the underlying graph and index through Graph and IG (both return the
// current snapshot's objects — hold one handle across calls for a consistent
// view).
package dkindex

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/obs"
	"dkindex/internal/qcache"
	"dkindex/internal/wal"
	"dkindex/internal/workload"
	"dkindex/internal/xmlgraph"
)

// NodeID identifies a node of the loaded data graph.
type NodeID = graph.NodeID

// LoadOptions re-exports the XML loader configuration.
type LoadOptions = xmlgraph.Options

// Index is a D(k)-index over one data graph, served through atomic
// snapshots: reads are lock-free, mutations build-and-swap under a writer
// mutex (see the package comment for the concurrency contract). The one
// exception to "attach anything any time" is Observe, which must be called
// before the index is shared.
type Index struct {
	// handle is the published snapshot; the only coordination point
	// between readers and writers.
	handle atomic.Pointer[snapshot]
	// mu serializes mutations. Readers never take it.
	mu sync.Mutex

	// recorder, once WatchLoad installs it, observes executed path queries
	// so MutOptimize can re-tune the index from its real load (the paper's
	// query-pattern-mining direction). Lock-free; nil when not watching.
	recorder atomic.Pointer[workload.Recorder]
	// cache holds recent query results, keyed by snapshot generation so
	// every mutation invalidates it wholesale. Nil when disabled.
	cache atomic.Pointer[qcache.Cache]

	// autoPromote, when positive, promotes a label once queries ending at
	// it have validated that many times (see SetAutoPromote); heat holds
	// the per-label pressure counters (LabelID -> *heatEntry).
	autoPromote atomic.Int32
	heat        atomic.Pointer[sync.Map]

	// observer, when attached via Observe, receives query metrics, sampled
	// traces and index lifecycle events. Nil costs only receiver checks.
	observer *obs.Observer

	// jr, when a Store attaches it, write-ahead-logs every mutation: the
	// record is appended and fsynced before the successor snapshot is
	// published, and the mutation aborts (unpublished) if the append fails.
	// Guarded by mu.
	jr mutationJournal

	// mutSeq is the last assigned mutation sequence number and durableMark
	// the acknowledged-durable watermark (see Apply); both are session-scoped.
	// batch, when StartBatching arms it, coalesces concurrent mutations into
	// group commits.
	mutSeq      atomic.Uint64
	durableMark atomic.Uint64
	batch       atomic.Pointer[batcher]
}

// mutationJournal is the write-ahead hook a Store installs. logGroup must
// make the records of one commit durable atomically before returning nil
// (recovery replays all members or none). Its one caller, commitLocked, holds
// mu; on error none of the commit may be published.
type mutationJournal interface {
	logGroup(recs []wal.GroupRecord) error
}

// attachJournal installs (or, with nil, removes) the store's write-ahead
// hook. At most one journal may be attached.
func (x *Index) attachJournal(j mutationJournal) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.jr != nil && j != nil {
		return fmt.Errorf("dkindex: index is already managed by a store")
	}
	x.jr = j
	return nil
}

// newIndex wraps a built D(k)-index into a facade with generation 0 and the
// default result cache.
func newIndex(dk *core.DK) *Index {
	x := &Index{}
	dk.IG.SealPostings()
	x.handle.Store(&snapshot{dk: dk})
	x.cache.Store(qcache.New(DefaultResultCacheSize))
	return x
}

// LoadReport re-exports the XML loader's diagnostics: node and reference-edge
// counts, plus the IDREF values that resolved to no element.
type LoadReport = xmlgraph.Report

// LoadXML parses an XML document and builds the initial index (label-split:
// every local similarity requirement starts at zero). Tune, or Apply with
// MutSetRequirements or MutPromote, raise similarities afterwards.
func LoadXML(r io.Reader, opts *LoadOptions) (*Index, error) {
	idx, _, err := LoadXMLWithReport(r, opts)
	return idx, err
}

// LoadXMLWithReport is LoadXML, also returning the loader's report so callers
// can surface diagnostics such as dangling IDREFs (dkserve logs them and
// counts them into the metrics registry).
func LoadXMLWithReport(r io.Reader, opts *LoadOptions) (*Index, *LoadReport, error) {
	g, rep, err := xmlgraph.Load(r, opts)
	if err != nil {
		return nil, rep, err
	}
	return FromGraph(g, nil), rep, nil
}

// LoadXMLString is LoadXML over a string.
func LoadXMLString(doc string, opts *LoadOptions) (*Index, error) {
	return LoadXML(strings.NewReader(doc), opts)
}

// FromGraph builds a D(k)-index over an existing data graph with the given
// per-label-name requirements (nil for none).
func FromGraph(g *graph.Graph, reqsByName map[string]int) *Index {
	reqs := core.ReqsFromNames(g.Labels(), reqsByName)
	return newIndex(core.Build(g, reqs))
}

// Graph exposes the current snapshot's data graph.
func (x *Index) Graph() *graph.Graph { return x.handle.Load().dk.IG.Data() }

// IG exposes the current snapshot's index graph for advanced use.
func (x *Index) IG() *index.IndexGraph { return x.handle.Load().dk.IG }

// DK exposes the current snapshot's D(k)-index handle for advanced use.
func (x *Index) DK() *core.DK { return x.handle.Load().dk }

// publish installs dk as the next snapshot. Callers hold mu — commitLocked
// for every sequenced mutation, Reload for the wholesale swap, and nothing
// else (TestOneCommitPath). Posting views are sealed first so the published
// graph never lazily mutates under its lock-free readers.
func (x *Index) publish(dk *core.DK) {
	dk.IG.SealPostings()
	x.handle.Store(&snapshot{dk: dk, gen: x.handle.Load().gen + 1})
}

// Stats summarizes the index.
type Stats struct {
	DataNodes  int
	DataEdges  int
	IndexNodes int
	IndexEdges int
	// MaxK is the largest local similarity of any index node.
	MaxK int
	// Generation counts published snapshots: how many mutations the index
	// has absorbed since construction.
	Generation uint64
	// CachedResults is the result cache's occupancy for this generation.
	CachedResults int
}

// Stats returns current index statistics, all from one snapshot.
func (x *Index) Stats() Stats {
	s := x.handle.Load()
	ig := s.dk.IG
	out := Stats{
		DataNodes:     ig.Data().NumNodes(),
		DataEdges:     ig.Data().NumEdges(),
		IndexNodes:    ig.NumNodes(),
		IndexEdges:    ig.NumEdges(),
		Generation:    s.gen,
		CachedResults: x.cache.Load().Len(),
	}
	for n := 0; n < ig.NumNodes(); n++ {
		if k := ig.K(graph.NodeID(n)); k > out.MaxK {
			out.MaxK = k
		}
	}
	return out
}

// QueryStats reports the cost of one query under the paper's model.
type QueryStats struct {
	// IndexNodesVisited is the traversal cost over the index graph.
	IndexNodesVisited int
	// DataNodesValidated is the validation cost over the data graph.
	DataNodesValidated int
	// Validations counts matched index nodes that required validation.
	Validations int
}

func fromCost(c eval.Cost) QueryStats {
	return QueryStats{
		IndexNodesVisited:  c.IndexNodesVisited,
		DataNodesValidated: c.DataNodesValidated,
		Validations:        c.Validations,
	}
}

// WatchLoad starts recording every executed path query so that MutOptimize
// can later re-tune the index from the observed load. Recording is lock-free:
// one shard lookup and one atomic increment per query.
func (x *Index) WatchLoad() {
	x.recorder.CompareAndSwap(nil, workload.NewRecorder())
}

// ObservedQueries returns how many distinct path queries have been recorded
// since WatchLoad (0 when not watching).
func (x *Index) ObservedQueries() int {
	r := x.recorder.Load()
	if r == nil {
		return 0
	}
	return r.Len()
}

// Tune samples a synthetic query load of n paths (2..5 labels, as in the
// paper's protocol), mines per-label requirements from it and rebuilds the
// index accordingly. Use TuneWith to supply a real query load.
func (x *Index) Tune(n int, seed int64) error {
	cfg := workload.DefaultConfig(seed)
	cfg.N = n
	w, err := workload.Generate(x.Graph(), cfg)
	if err != nil {
		return err
	}
	return x.TuneWith(w)
}

// TuneWith mines requirements from the given query load and applies them as
// one MutSetRequirements through the write pipeline, which is what locks,
// logs and publishes the change. The error is nil unless a store manages the
// index and its write-ahead log rejects the record, in which case nothing
// changes.
func (x *Index) TuneWith(w *workload.Workload) error {
	reqs := reqsByLabelName(x.DK(), w.Requirements())
	_, err := x.Apply(Mutation{Op: MutSetRequirements, Reqs: reqs})
	return err
}

// reqsByLabelName translates label-id requirements into the by-name form
// Mutation.Reqs and the write-ahead log carry (names survive rebuilds; ids do
// not).
func reqsByLabelName(dk *core.DK, reqs core.Requirements) map[string]int {
	labels := dk.IG.Data().Labels()
	out := make(map[string]int, len(reqs))
	for l, k := range reqs {
		out[labels.Name(l)] = k
	}
	return out
}

// LabelName returns the label of a data node; handy when printing results.
// Prefer Result.LabelName when formatting query output — it resolves names
// against the snapshot that produced the result.
func (x *Index) LabelName(n NodeID) string { return x.Graph().LabelName(n) }

// ParseRequirements parses the "label=k,label=k" requirement syntax used by
// the command-line tools into a Mutation.Reqs map.
func ParseRequirements(s string) (map[string]int, error) {
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("dkindex: bad requirement %q (want label=k)", part)
		}
		k := 0
		for _, c := range val {
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("dkindex: bad requirement value in %q", part)
			}
			k = k*10 + int(c-'0')
			if k > 1<<20 {
				return nil, fmt.Errorf("dkindex: requirement in %q too large", part)
			}
		}
		if val == "" {
			return nil, fmt.Errorf("dkindex: bad requirement value in %q", part)
		}
		out[name] = k
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dkindex: empty requirements")
	}
	return out, nil
}

// Explanation describes how one query was answered: every matched index
// node, its extent size and similarity, and whether its extent had to be
// validated against the data graph. It is the debugging view behind
// QueryStats.
type Explanation struct {
	Query string
	// Matched lists the index nodes the query matched.
	Matched []MatchedNode
	// Results is the final result count.
	Results int
	Stats   QueryStats
}

// MatchedNode is one matched index node in an Explanation.
type MatchedNode struct {
	IndexNode  NodeID
	Label      string
	K          int
	ExtentSize int
	// Validated reports whether the extent required validation (its
	// similarity did not cover the query length).
	Validated bool
	// Kept is how many extent members survived (equals ExtentSize when the
	// node was sound).
	Kept int
}

// Explain evaluates a simple path query and reports per-index-node detail:
// which nodes matched, which were trusted outright, and which had to be
// validated. Unlike Run it bypasses the result cache and does not record
// into the load recorder.
func (x *Index) Explain(path string) (*Explanation, error) {
	s := x.handle.Load()
	ig := s.dk.IG
	labels := ig.Data().Labels()
	q, err := eval.ParseQuery(labels, path)
	if err != nil {
		return nil, err
	}
	out := &Explanation{Query: path}
	matched, cost := eval.MatchedIndexNodes(ig, q)
	need := q.Length()
	data := ig.Data()
	for _, m := range matched {
		mn := MatchedNode{
			IndexNode:  m,
			Label:      labels.Name(ig.Label(m)),
			K:          ig.K(m),
			ExtentSize: ig.ExtentSize(m),
		}
		if ig.K(m) >= need {
			mn.Kept = mn.ExtentSize
		} else {
			mn.Validated = true
			cost.Validations++
			ig.ExtentSet(m).Iterate(func(d graph.NodeID) bool {
				ok := data.LabelPathMatchesNode(q, d, func(graph.NodeID) { cost.DataNodesValidated++ })
				if ok {
					mn.Kept++
				}
				return true
			})
		}
		out.Results += mn.Kept
		out.Matched = append(out.Matched, mn)
	}
	out.Stats = fromCost(cost)
	return out, nil
}

// String renders the explanation for humans.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s: %d results, %d index nodes matched\n", e.Query, e.Results, len(e.Matched))
	for _, m := range e.Matched {
		status := "sound"
		if m.Validated {
			status = "validated"
		}
		fmt.Fprintf(&b, "  index node %d (%s) k=%d extent=%d kept=%d [%s]\n",
			m.IndexNode, m.Label, m.K, m.ExtentSize, m.Kept, status)
	}
	fmt.Fprintf(&b, "  cost: %d index visits, %d data nodes validated\n",
		e.Stats.IndexNodesVisited, e.Stats.DataNodesValidated)
	return b.String()
}

// Summary returns the distribution view of the index (extent sizes and the
// local-similarity histogram); its String method renders it for humans.
func (x *Index) Summary() index.Summary {
	s := x.handle.Load()
	return s.dk.IG.Summarize(s.dk.IG.Data().Labels())
}

// Audit semantically verifies the index: structural invariants (extent
// partitioning, edge mirroring), the Definition 3 invariant, and — the
// expensive part — every local-similarity claim up to level maxK, by
// checking that index paths of covered lengths match every extent member.
// Returns nil when the index is provably exact for queries within the
// audited budgets. Intended for operations (after restoring a persisted
// index, or on suspicion of corruption), not hot paths. Audits one
// snapshot; mutations may publish successors while it runs.
func (x *Index) Audit(maxK int) error {
	dk := x.handle.Load().dk
	if err := dk.IG.Validate(); err != nil {
		return err
	}
	if err := core.CheckInvariant(dk.IG); err != nil {
		return err
	}
	return core.Audit(dk.IG, maxK)
}

// SetAutoPromote makes the index crack itself: whenever queries ending at
// some label have required validation `threshold` times, the label is
// promoted to cover the longest such query, so subsequent repeats answer
// straight from the summary. This implements the paper's second future-work
// direction — combining the update and evaluation processes — with the
// promoting machinery of Section 5.3. A threshold of 0 disables it.
//
// Pressure is counted lock-free on the query path (cache hits included);
// the query that crosses the threshold records an auto_promote event — the
// decision — and submits the promotion as ApplyAsync(MutPromote), so it is
// sequenced, journalled, batched and observed like any other mutation. The
// label's pressure restarts from zero at submission: a promotion the
// write-ahead log rejects is retried after threshold more validations, and a
// label hot enough to cross again while its promotion still waits in the
// batcher submits it twice (the second commit changes nothing).
func (x *Index) SetAutoPromote(threshold int) {
	x.autoPromote.Store(int32(threshold))
	if threshold > 0 {
		x.heat.CompareAndSwap(nil, &sync.Map{})
	}
}

// heatEntry accumulates validation pressure for one label. fired latches the
// threshold crossing so exactly one query submits the promotion.
type heatEntry struct {
	count  atomic.Int64
	maxLen atomic.Int64
	fired  atomic.Bool
}

// noteValidation records the validation pressure of one execution of a path
// query on snapshot s (path is nil for the other kinds, which exert none) and
// submits a promotion when the threshold is crossed. Called on the lock-free
// query path.
func (x *Index) noteValidation(s *snapshot, path eval.Query, validations int) {
	threshold := int(x.autoPromote.Load())
	if threshold <= 0 || validations == 0 || len(path) == 0 {
		return
	}
	last, length := path[len(path)-1], path.Length()
	if last == graph.InvalidLabel {
		return
	}
	hm := x.heat.Load()
	if hm == nil {
		return
	}
	v, _ := hm.LoadOrStore(last, &heatEntry{})
	h := v.(*heatEntry)
	for {
		m := h.maxLen.Load()
		if int64(length) <= m || h.maxLen.CompareAndSwap(m, int64(length)) {
			break
		}
	}
	count := h.count.Add(int64(validations))
	if count < int64(threshold) || !h.fired.CompareAndSwap(false, true) {
		return
	}
	// The label travels by name: applyOne resolves it against the state it
	// mutates and rejects one a Reload retired, so pressure counted on a stale
	// snapshot can at worst cost index nodes, never answers.
	m := Mutation{Op: MutPromote, Label: s.dk.IG.Data().Labels().Name(last), K: int(h.maxLen.Load())}
	x.observer.RecordEvent(obs.Event{Type: obs.EventAutoPromote, Label: m.Label, K: m.K,
		Detail: fmt.Sprintf("%d validations crossed threshold %d", count, threshold)})
	// The outcome is not awaited (the batcher may hold it), so the error is
	// dropped: retiring the entry un-latches the label and zeroes its count
	// whatever the commit decides. A promotion that lands stops the
	// validations that feed it; one the log rejects is retried after
	// threshold more of them — the threshold is the back-off.
	_, _ = x.ApplyAsync(m)
	hm.Delete(last)
}
