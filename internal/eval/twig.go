package eval

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/nodeset"
	"dkindex/internal/obs"
)

// Twig is a branching path query: a trunk of labels in which every step may
// carry child-existence predicates, themselves twigs. "movie[actor.name].title"
// returns titles of movies that have an actor child with a name child.
// These are the branching path queries of the F&B-index (Kaushik et al.,
// SIGMOD 2002), which the paper's future work points to.
type Twig struct {
	Steps []TwigStep
}

// TwigStep is one trunk step: a label plus optional predicates.
type TwigStep struct {
	Label graph.LabelID
	Preds []*Twig
	id    int // dense across the whole query, for memoization
}

// ParseTwig parses a branching path query (unknown labels resolve to
// graph.InvalidLabel and match nothing, as in ParseQuery):
//
//	twig := step ('.' step)*
//	step := label ('[' twig ']')*
//
// Labels follow the same lexical rules as simple queries.
func ParseTwig(t *graph.LabelTable, s string) (*Twig, error) {
	p := &twigParser{src: s, tab: t}
	q, err := p.twig()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("eval: unexpected %q at offset %d", p.src[p.pos:], p.pos)
	}
	assignIDs(q, 0)
	return q, nil
}

func assignIDs(q *Twig, next int) int {
	for i := range q.Steps {
		q.Steps[i].id = next
		next++
		for _, pred := range q.Steps[i].Preds {
			next = assignIDs(pred, next)
		}
	}
	return next
}

type twigParser struct {
	src string
	pos int
	tab *graph.LabelTable
}

func (p *twigParser) twig() (*Twig, error) {
	q := &Twig{}
	for {
		step, err := p.step()
		if err != nil {
			return nil, err
		}
		q.Steps = append(q.Steps, step)
		if p.pos < len(p.src) && p.src[p.pos] == '.' {
			p.pos++
			continue
		}
		return q, nil
	}
}

func (p *twigParser) step() (TwigStep, error) {
	start := p.pos
	for p.pos < len(p.src) && isTwigLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return TwigStep{}, fmt.Errorf("eval: expected label at offset %d in %q", start, p.src)
	}
	step := TwigStep{Label: p.tab.Lookup(p.src[start:p.pos])}
	for p.pos < len(p.src) && p.src[p.pos] == '[' {
		p.pos++
		pred, err := p.twig()
		if err != nil {
			return TwigStep{}, err
		}
		if p.pos >= len(p.src) || p.src[p.pos] != ']' {
			return TwigStep{}, fmt.Errorf("eval: missing ']' at offset %d in %q", p.pos, p.src)
		}
		p.pos++
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

func isTwigLabelByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == ':' || c == '@'
}

// Format renders the twig back to source syntax.
func (q *Twig) Format(t *graph.LabelTable) string {
	var b strings.Builder
	for i, s := range q.Steps {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(labelName(t, s.Label))
		for _, pred := range s.Preds {
			b.WriteByte('[')
			b.WriteString(pred.Format(t))
			b.WriteByte(']')
		}
	}
	return b.String()
}

// Length returns the trunk length in edges (the budget a non-branching
// index node would need for the trunk alone).
func (q *Twig) Length() int { return len(q.Steps) - 1 }

// twigSource is the graph view twig evaluation needs; data graphs and index
// graphs both provide it.
type twigSource interface {
	NumNodes() int
	Label(n graph.NodeID) graph.LabelID
	Children(n graph.NodeID) []graph.NodeID
	Parents(n graph.NodeID) []graph.NodeID
}

// labelIndexed is the optional posting-list view: sources that provide it
// (data graphs do) seed evaluation in O(|matches|) instead of a full node
// scan. The returned slice must be the label's nodes in ascending order.
type labelIndexed interface {
	NodesWithLabel(l graph.LabelID) []graph.NodeID
}

// postingIndexed is the succinct posting-list view: index graphs provide it,
// and the evaluator then seeds and advances predicate-free trunk steps by
// compressed set intersection instead of per-child label checks.
type postingIndexed interface {
	PostingSet(l graph.LabelID) nodeset.Set
}

// memoTable is a memo of booleans keyed by (step, node) pairs. Like
// rpe.matchScratch it keeps only the pairs a query touches, in an
// epoch-stamped open-addressing table: a slot holds epoch<<1 | result and
// counts as empty under any other epoch, so emptying the table is one
// increment, its storage is reused across queries, and what it holds grows
// with what one evaluation visits — never with steps x NumNodes, which a
// dense table paid again whenever a collection emptied the scratch pool.
type memoTable struct {
	keys  []uint64
	cells []uint32
	shift uint32 // 64 - log2(len(keys))
	used  int    // slots claimed under the current epoch
	epoch uint32
}

// memoKey packs a (step, node) pair.
func memoKey(step int, n graph.NodeID) uint64 { return uint64(step)<<32 | uint64(uint32(n)) }

// reset empties the table.
func (m *memoTable) reset() {
	m.used = 0
	if m.epoch++; m.epoch == 1<<31 { // stamp wrap-around: wipe
		clear(m.cells)
		m.epoch = 1
	}
}

// slot finds key's slot, or the empty one it would claim.
func (m *memoTable) slot(key uint64) (i uint64, found bool) {
	mask := uint64(len(m.keys) - 1)
	for i = key * 0x9E3779B97F4A7C15 >> m.shift; ; i = (i + 1) & mask {
		if m.cells[i]>>1 != m.epoch {
			return i, false
		}
		if m.keys[i] == key {
			return i, true
		}
	}
}

func (m *memoTable) get(key uint64) (res, ok bool) {
	if m.used == 0 {
		return false, false
	}
	i, found := m.slot(key)
	return m.cells[i]&1 == 1, found
}

func (m *memoTable) set(key uint64, res bool) {
	if 2*m.used >= len(m.keys) {
		m.grow()
	}
	i, found := m.slot(key)
	if !found {
		m.keys[i] = key
		m.used++
	}
	m.cells[i] = m.epoch << 1
	if res {
		m.cells[i] |= 1
	}
}

// grow doubles the table and re-seats the current epoch's pairs.
func (m *memoTable) grow() {
	keys, cells := m.keys, m.cells
	size := max(64, 2*len(keys))
	m.keys, m.cells = make([]uint64, size), make([]uint32, size)
	m.shift = uint32(64 - bits.TrailingZeros(uint(size)))
	if m.epoch == 0 {
		m.epoch = 1 // a zeroed cell must read as empty
	}
	for j, c := range cells {
		if c>>1 == m.epoch {
			i, _ := m.slot(keys[j])
			m.keys[i], m.cells[i] = keys[j], c
		}
	}
}

// twigScratch pools a twig evaluator's working state: the dense frontier
// buffers of eval and the two memo tables.
type twigScratch struct {
	inNext graph.VisitSet
	a, b   []graph.NodeID
	cand   []graph.NodeID
	// pred caches downward predicate matching by (step id, node); it lives
	// until forget.
	pred memoTable
	// trunk backs matchesEndingAt by (trunk position, node); emptied per call.
	trunk memoTable
}

var twigScratchPool = sync.Pool{New: func() any { return new(twigScratch) }}

// twigEval evaluates one twig over one source. Its scratch comes from a
// pool: release it when done.
type twigEval struct {
	src   twigSource
	q     *Twig
	visit func(graph.NodeID)
	sc    *twigScratch
}

func newTwigEval(src twigSource, q *Twig, visit func(graph.NodeID)) *twigEval {
	e := &twigEval{src: src, q: q, visit: visit, sc: twigScratchPool.Get().(*twigScratch)}
	e.forget()
	return e
}

// forget drops every cached predicate outcome, leaving the evaluator as a
// freshly constructed one.
func (e *twigEval) forget() { e.sc.pred.reset() }

func (e *twigEval) release() {
	twigScratchPool.Put(e.sc)
	e.sc = nil
}

func (e *twigEval) see(n graph.NodeID) {
	if e.visit != nil {
		e.visit(n)
	}
}

// stepOK reports whether node n satisfies step s locally: label match plus
// all predicates.
func (e *twigEval) stepOK(n graph.NodeID, s *TwigStep) bool {
	if e.src.Label(n) != s.Label {
		return false
	}
	for _, pred := range s.Preds {
		if !e.matchDown(n, pred, 0) {
			return false
		}
	}
	return true
}

// matchDown reports whether some child chain of n matches pred starting at
// step i (the predicate is rooted strictly below n).
func (e *twigEval) matchDown(n graph.NodeID, pred *Twig, i int) bool {
	memo, key := &e.sc.pred, memoKey(pred.Steps[i].id, n)
	if v, ok := memo.get(key); ok {
		return v
	}
	memo.set(key, false) // cycle cut: revisiting (step, node) cannot help
	res := false
	for _, c := range e.src.Children(n) {
		e.see(c)
		if !e.stepOK(c, &pred.Steps[i]) {
			continue
		}
		if i == len(pred.Steps)-1 || e.matchDown(c, pred, i+1) {
			res = true
			break
		}
	}
	memo.set(key, res)
	return res
}

// eval runs the trunk forward and returns matched nodes, ascending. Seeding
// reads the source's posting list (the compressed set for index graphs, the
// slice view for data graphs); frontiers are pooled dense slices
// deduplicated by an epoch-stamped visit set. On posting-indexed sources,
// predicate-FREE steps advance by pure set algebra — the frontier's distinct
// children intersected with the label's compressed posting set — while
// predicate-bearing steps keep the per-child loop, whose stepOK calls drive
// the memoized downward matching. The charge pattern of the per-child
// evaluator is preserved exactly either way: on a predicate-free step every
// label-matching distinct child passes stepOK, so the old loop charged
// precisely |children(frontier) ∩ posting(label)| — the kernel's |next| —
// and on predicate-bearing steps charge totals are properties of the
// frontier set and the memo DAG, not of iteration order.
func (e *twigEval) eval() []graph.NodeID {
	sc := e.sc
	cur, next, cand := sc.a[:0], sc.b[:0], sc.cand[:0]
	pi, piOK := e.src.(postingIndexed)
	switch {
	case piOK:
		pi.PostingSet(e.q.Steps[0].Label).Iterate(func(id graph.NodeID) bool {
			e.see(id)
			if e.stepOK(id, &e.q.Steps[0]) {
				cur = append(cur, id)
			}
			return true
		})
	default:
		if li, ok := e.src.(labelIndexed); ok {
			for _, id := range li.NodesWithLabel(e.q.Steps[0].Label) {
				e.see(id)
				if e.stepOK(id, &e.q.Steps[0]) {
					cur = append(cur, id)
				}
			}
		} else {
			for n := 0; n < e.src.NumNodes(); n++ {
				id := graph.NodeID(n)
				if e.src.Label(id) == e.q.Steps[0].Label {
					e.see(id)
					if e.stepOK(id, &e.q.Steps[0]) {
						cur = append(cur, id)
					}
				}
			}
		}
	}
	sorted := true // posting-seeded frontiers are ascending
	for pos := 1; pos < len(e.q.Steps) && len(cur) > 0; pos++ {
		sc.inNext.Reset(e.src.NumNodes())
		next = next[:0]
		step := &e.q.Steps[pos]
		if piOK && len(step.Preds) == 0 {
			// Set-algebra kernel: dedupe the frontier's children, intersect
			// with the compressed posting list of the wanted label.
			cand = cand[:0]
			for _, n := range cur {
				for _, c := range e.src.Children(n) {
					if sc.inNext.Add(c) {
						cand = append(cand, c)
					}
				}
			}
			post := pi.PostingSet(step.Label)
			if post.Len() <= 2*len(cand) {
				post.Iterate(func(id graph.NodeID) bool {
					if sc.inNext.Contains(id) {
						next = append(next, id)
					}
					return true
				})
			} else {
				slices.Sort(cand)
				next = nodeset.IntersectSortedAppend(post, cand, next)
			}
			for _, id := range next {
				e.see(id)
			}
			sorted = true
		} else {
			want := step.Label
			for _, n := range cur {
				for _, c := range e.src.Children(n) {
					if e.src.Label(c) != want || sc.inNext.Contains(c) {
						continue
					}
					e.see(c)
					if e.stepOK(c, step) {
						sc.inNext.Add(c)
						next = append(next, c)
					}
				}
			}
			sorted = false
		}
		cur, next = next, cur
	}
	var out []graph.NodeID
	if len(cur) > 0 {
		out = append([]graph.NodeID(nil), cur...)
		if !sorted {
			slices.Sort(out)
		}
	}
	sc.a, sc.b, sc.cand = cur, next, cand
	return out
}

// matchesEndingAt reports whether some trunk instance ends at node n, with
// every trunk node satisfying its predicates; the validation primitive. The
// trunk memo is scoped to one call (emptied on entry); the predicate memo is
// shared across the members of an extent.
func (e *twigEval) matchesEndingAt(n graph.NodeID) bool {
	e.sc.trunk.reset()
	return e.trunkEndsAt(n, len(e.q.Steps)-1)
}

// trunkEndsAt reports whether trunk steps 0..i match some node path ending
// at n.
func (e *twigEval) trunkEndsAt(n graph.NodeID, i int) bool {
	e.see(n)
	if !e.stepOK(n, &e.q.Steps[i]) {
		return false
	}
	if i == 0 {
		return true
	}
	memo, key := &e.sc.trunk, memoKey(i, n)
	if v, hit := memo.get(key); hit {
		return v
	}
	memo.set(key, false)
	res := false
	for _, p := range e.src.Parents(n) {
		if e.trunkEndsAt(p, i-1) {
			res = true
			break
		}
	}
	memo.set(key, res)
	return res
}

// DataTwig evaluates a branching path query directly on the data graph.
func DataTwig(g *graph.Graph, q *Twig) ([]graph.NodeID, Cost) {
	var c Cost
	e := newTwigEval(g, q, func(graph.NodeID) { c.IndexNodesVisited++ })
	defer e.release()
	return e.eval(), c
}

// IndexTwig evaluates a branching path query on a structural summary. On an
// F&B-stable index (BuildFB) the result is sound without validation:
// forward-and-backward bisimilar extents agree on both the trunk's incoming
// paths and every predicate's downward pattern. On any other index, matched
// extents are validated member by member against the data graph — backward
// bisimilarity alone says nothing about child structure.
func IndexTwig(ig *index.IndexGraph, q *Twig) ([]graph.NodeID, Cost) {
	return IndexTwigTraced(ig, q, nil)
}

// IndexTwigTraced is IndexTwig with per-stage tracing ("match" and
// "validate" spans, cost counters copied onto the trace). Nil traces are
// free and never change the counters.
func IndexTwigTraced(ig *index.IndexGraph, q *Twig, tr *obs.Trace) ([]graph.NodeID, Cost) {
	var c Cost
	e := newTwigEval(ig, q, func(graph.NodeID) { c.IndexNodesVisited++ })
	st := tr.StageStart()
	matched := e.eval()
	e.release()
	tr.EndStage("match", st)
	st = tr.StageStart()
	var res []graph.NodeID
	if ig.FBStable() {
		// F&B-stable extents stay compressed until the disjoint-set merge.
		vs := valScratchPool.Get().(*valScratch)
		for _, m := range matched {
			vs.sound = append(vs.sound, ig.ExtentSet(m))
		}
		res = vs.finish()
	} else if len(matched) > 0 {
		// Unsound matches decompress into a pooled buffer for validation.
		// Validation stays serial: extent members share ev's predicate memo,
		// so later members ride on charges already paid by earlier ones; the
		// memo is forgotten between extents.
		ev := newTwigEval(ig.Data(), q, func(graph.NodeID) { c.DataNodesValidated++ })
		vs := valScratchPool.Get().(*valScratch)
		for _, m := range matched {
			c.Validations++
			ev.forget()
			vs.ext = ig.AppendExtent(vs.ext[:0], m)
			for _, d := range vs.ext {
				if ev.matchesEndingAt(d) {
					vs.hits = append(vs.hits, d)
				}
			}
		}
		ev.release()
		res = vs.finish()
	}
	tr.EndStage("validate", st)
	tr.RecordCost(c.IndexNodesVisited, c.DataNodesValidated, c.Validations, len(res))
	return res, c
}

// TwigFromQuery converts a simple path query into a predicate-free twig.
func TwigFromQuery(q Query) *Twig {
	tw := &Twig{Steps: make([]TwigStep, len(q))}
	for i, l := range q {
		tw.Steps[i].Label = l
	}
	assignIDs(tw, 0)
	return tw
}

// AddTwigPred attaches a single-label child-existence predicate to trunk
// step pos; a workload-derivation helper for experiments.
func AddTwigPred(q *Twig, pos int, label graph.LabelID) {
	q.Steps[pos].Preds = append(q.Steps[pos].Preds,
		&Twig{Steps: []TwigStep{{Label: label}}})
	assignIDs(q, 0)
}
