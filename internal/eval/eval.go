// Package eval evaluates path queries on data graphs and on structural
// summaries, implementing the paper's in-memory cost model (Section 6.1):
// the cost of a query is the number of nodes visited in the index or data
// graph during evaluation. Data nodes inside the extent of a matched index
// node are free — unless the match requires validation, in which case every
// data node inspected while validating is charged.
package eval

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/nodeset"
	"dkindex/internal/obs"
)

// Query is a simple path query: a sequence of labels, outermost first. A
// data node matches if some node path ending in it spells the query (the
// paper's partial-match semantics — queries may start anywhere, which is the
// common self-or-descendant '//' usage its workload models).
type Query []graph.LabelID

// maxQueryLabels bounds the path queries ParseQuery accepts: evaluation and
// validation grow with the path, and the load recorder keeps every distinct
// path it is shown.
const maxQueryLabels = 1024

// ParseQuery builds a Query from a dotted label path such as
// "director.movie.title". Labels the data has never used resolve to
// graph.InvalidLabel, which no node carries — the query simply matches
// nothing. (Parsing never interns, so hostile query streams cannot grow the
// label table.) A path of more than maxQueryLabels labels is rejected, as
// rpe.Parse rejects an expression of more tokens.
func ParseQuery(t *graph.LabelTable, s string) (Query, error) {
	if s == "" {
		return nil, fmt.Errorf("eval: empty query")
	}
	if n := strings.Count(s, ".") + 1; n > maxQueryLabels {
		return nil, fmt.Errorf("eval: query of %d labels, at most %d allowed", n, maxQueryLabels)
	}
	parts := strings.Split(s, ".")
	q := make(Query, len(parts))
	for i, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("eval: empty label at position %d in %q", i, s)
		}
		q[i] = t.Lookup(p)
	}
	return q, nil
}

// Length returns the path expression length in the paper's convention: a
// query of m+1 labels has length m (its edge count). An index node is sound
// for q iff its local similarity is >= q.Length().
func (q Query) Length() int { return len(q) - 1 }

// Format renders the query with a label table. Labels unknown to the data
// (graph.InvalidLabel after parsing) render as "__unknown__", which itself
// resolves to no label, so formatting stays re-parseable.
func (q Query) Format(t *graph.LabelTable) string {
	parts := make([]string, len(q))
	for i, l := range q {
		parts[i] = labelName(t, l)
	}
	return strings.Join(parts, ".")
}

// AppendKey appends a compact fixed-width binary encoding of q (4 bytes per
// label, little-endian) to dst and returns the extended slice. Equal queries
// produce equal keys and the encoding orders keys by label-id sequence; the
// load recorder uses it as a map key that needs no label table to build.
func (q Query) AppendKey(dst []byte) []byte {
	for _, l := range q {
		dst = append(dst, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return dst
}

// labelName renders a label id defensively (parsing can produce
// graph.InvalidLabel for labels the data never uses).
func labelName(t *graph.LabelTable, l graph.LabelID) string {
	if l == graph.InvalidLabel {
		return "__unknown__"
	}
	return t.Name(l)
}

// Cost tallies the work of one evaluation under the paper's cost model.
type Cost struct {
	// IndexNodesVisited counts nodes expanded during graph traversal (index
	// nodes for index evaluation, data nodes for direct evaluation).
	IndexNodesVisited int
	// DataNodesValidated counts data nodes inspected by the validation
	// process.
	DataNodesValidated int
	// Validations counts matched index nodes that required validation.
	Validations int
}

// Total is the paper's scalar cost: all nodes visited.
func (c Cost) Total() int { return c.IndexNodesVisited + c.DataNodesValidated }

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.IndexNodesVisited += other.IndexNodesVisited
	c.DataNodesValidated += other.DataNodesValidated
	c.Validations += other.Validations
}

// Data evaluates q directly on the data graph — the ground truth (and the
// cost of queries without any index). Results are sorted data node ids.
func Data(g *graph.Graph, q Query) ([]graph.NodeID, Cost) {
	e := newPathEval(g, q)
	defer e.release()
	res := slices.Clone(e.eval())
	return res, Cost{IndexNodesVisited: e.visited}
}

// MatchesNode reports whether some node path of g ending at n spells q (an
// empty q matches every node) — the paper's validation of one extent member
// — and how many data nodes the check inspected, which the cost model
// charges.
func MatchesNode(g *graph.Graph, q Query, n graph.NodeID) (bool, int) {
	if len(q) == 0 {
		return true, 0
	}
	e := newPathEval(g, q)
	defer e.release()
	ok := e.matchesEndingAt(n)
	return ok, e.visited
}

// Index evaluates q on a structural summary. The query is first run over
// the index graph; extents of matched index nodes that are sound for the
// query (local similarity >= query length) contribute wholesale, while
// unsound matches are validated node by node against the data graph
// (Section 4.1: the validation process of the A(k)-index, applied per index
// node under the D(k)-index's per-node similarities).
//
// Results are sorted data node ids and always equal Data(g, q): safety
// guarantees no misses, validation removes false positives.
func Index(ig *index.IndexGraph, q Query) ([]graph.NodeID, Cost) {
	return materialize(IndexTraced(ig, q, nil))
}

// IndexTraced is Index returning the unmerged Answer, with per-stage tracing:
// the index-graph match and the validation loop are recorded as "match" and
// "validate" spans, and the cost counters are copied onto the trace. A nil
// trace makes every tracing call a no-op (StageStart then skips the clock
// read), so the uninstrumented path is unchanged — and the counters
// themselves are computed identically either way, keeping traced and
// untraced costs bit-for-bit equal.
func IndexTraced(ig *index.IndexGraph, q Query, tr *obs.Trace) (Answer, Cost) {
	e := newPathEval(ig, q)
	defer e.release()
	return e.onIndex(ig, tr, nil)
}

// Explain is IndexTraced reporting every matched index node to each, in
// ascending order: whether its extent was validated and how many of its
// members the answer kept.
func Explain(ig *index.IndexGraph, q Query, each func(m graph.NodeID, validated bool, kept int)) (Answer, Cost) {
	e := newPathEval(ig, q)
	defer e.release()
	return e.onIndex(ig, nil, each)
}

// Answer is the result of an index evaluation, left unmerged (Section 4.1's
// union): the extents of the sound index nodes it matched, as the snapshot's
// immutable sets, and the sorted members of the other matched extents that
// passed validation. Extents partition the data nodes, so the parts are
// disjoint and Len needs no merge; a caller lists what it needs with
// AppendFirst. An Answer an evaluator returns borrows pooled scratch: it is
// valid until Release, and Keep copies out one that owns its hits.
type Answer struct {
	sound []nodeset.Set
	hits  []graph.NodeID
	n     int
	vs    *valScratch // the borrowed scratch; nil once released or kept
}

// Len returns the number of data nodes in the answer.
func (a *Answer) Len() int { return a.n }

// AppendFirst appends the answer's n smallest members, or all of them when
// it has fewer, to dst in ascending order.
func (a *Answer) AppendFirst(dst []graph.NodeID, n int) []graph.NodeID {
	return nodeset.MergeAppend(dst, a.sound, a.hits, n)
}

// Release returns the borrowed scratch to its pool and empties a; it does
// nothing to a kept answer.
func (a *Answer) Release() {
	if vs := a.vs; vs != nil {
		clear(vs.sound) // a pooled buffer must not pin a snapshot's extents
		vs.sound, vs.hits = vs.sound[:0], vs.hits[:0]
		valScratchPool.Put(vs)
		*a = Answer{}
	}
}

// Keep returns a copy of a that borrows nothing: it shares the extent sets,
// which are immutable, and owns a copy of the hits and of the list of sets.
// The copy pins the extents of the snapshot that answered.
func (a *Answer) Keep() Answer {
	return Answer{sound: slices.Clone(a.sound), hits: slices.Clone(a.hits), n: a.n}
}

// materialize lists a whole answer and releases it.
func materialize(a Answer, c Cost) ([]graph.NodeID, Cost) {
	defer a.Release()
	return a.AppendFirst(nil, a.Len()), c
}

// valScratch pools the result-assembly buffers of the index evaluators: sound
// collects the extents that contribute wholesale, ext holds the extent being
// validated, decompressed, and hits the members that passed so far, so an
// evaluation allocates nothing for its answer: the Answer borrows sound and
// hits until Release. sound and hits are empty whenever the scratch is in
// the pool.
type valScratch struct {
	sound     []nodeset.Set
	ext, hits []graph.NodeID
}

var valScratchPool = sync.Pool{New: func() any { return new(valScratch) }}

// answer sorts the validated hits and lends the scratch out as an Answer.
func (vs *valScratch) answer() Answer {
	slices.Sort(vs.hits)
	n := len(vs.hits)
	for _, s := range vs.sound {
		n += s.Len()
	}
	return Answer{sound: vs.sound, hits: vs.hits, n: n, vs: vs}
}

// SameResult reports whether two sorted result slices are identical; a test
// and experiment helper.
func SameResult(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
