package eval

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"dkindex/internal/cow"
	"dkindex/internal/graph"
	"dkindex/internal/index"
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
// A label is a run of letters, digits and "_-:@" — narrower than a simple
// query's labels, which may hold any byte but '.'. A twig of more than
// maxQueryLabels steps, counted across the trunk and every predicate, is
// rejected as ParseQuery rejects a longer path.
func ParseTwig(t *graph.LabelTable, s string) (*Twig, error) {
	// Every step starts the text or follows a '.' or a '[', so this bounds
	// the steps, and with them the parser's recursion, before it starts.
	if n := 1 + strings.Count(s, ".") + strings.Count(s, "["); n > maxQueryLabels {
		return nil, fmt.Errorf("eval: twig of %d steps, at most %d allowed", n, maxQueryLabels)
	}
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

// twigSource is the graph view twig evaluation needs: data graphs and index
// graphs both provide it. NodesWithLabel lists a label's nodes in ascending
// order, so seeding the trunk costs O(|matches|).
type twigSource interface {
	NumNodes() int
	Label(n graph.NodeID) graph.LabelID
	Children(n graph.NodeID) []graph.NodeID
	Parents(n graph.NodeID) []graph.NodeID
	NodesWithLabel(l graph.LabelID) cow.Paged[graph.NodeID]
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

// twigEval evaluates one trunk over one source — every query kind but RPE
// walks its labels here: a simple path is a predicate-free twig. Evaluators
// are pooled with their working state (the dense frontier buffers of eval,
// the two memo tables and the twig a simple path fills): take one with
// newTwigEval or newPathEval and release it when done.
type twigEval struct {
	src twigSource
	q   *Twig
	// path marks a simple path query, whose index matches are sound by the
	// paper's k rule rather than the twig's F&B rule (see sound).
	path bool
	// visited counts the nodes evaluation charged, the paper's cost unit.
	visited int

	inNext graph.VisitSet
	a, b   []graph.NodeID
	// pred caches downward predicate matching by (step id, node) for the
	// evaluator's lifetime.
	pred memoTable
	// trunk backs matchesEndingAt by (trunk position, node); emptied per call.
	trunk memoTable
	// pathTwig holds a simple path query's labels (see newPathEval).
	pathTwig Twig
}

var twigEvalPool = sync.Pool{New: func() any { return new(twigEval) }}

func newTwigEval(src twigSource, q *Twig) *twigEval {
	e := twigEvalPool.Get().(*twigEval)
	e.src, e.q, e.path, e.visited = src, q, false, 0
	e.pred.reset()
	return e
}

// newPathEval is newTwigEval for a simple path query: q's labels fill the
// evaluator's own predicate-free twig, so a path allocates no Twig.
func newPathEval(src twigSource, q Query) *twigEval {
	e := newTwigEval(src, nil)
	steps := e.pathTwig.Steps[:0]
	for _, l := range q {
		steps = append(steps, TwigStep{Label: l})
	}
	e.pathTwig.Steps = steps
	e.q, e.path = &e.pathTwig, true
	return e
}

func (e *twigEval) release() {
	e.src, e.q = nil, nil // a pooled evaluator must not pin a snapshot
	twigEvalPool.Put(e)
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
	memo, key := &e.pred, memoKey(pred.Steps[i].id, n)
	if v, ok := memo.get(key); ok {
		return v
	}
	memo.set(key, false) // cycle cut: revisiting (step, node) cannot help
	res := false
	for _, c := range e.src.Children(n) {
		e.visited++
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

// eval runs the trunk forward and returns the matched nodes, ascending, in
// the evaluator's own buffer: it is valid until the next eval or release.
// Seeding reads the source's label list; frontiers are pooled dense slices
// deduplicated by an epoch-stamped visit set. Each later step charges every
// label-matching child of the frontier not yet accepted, so a child its
// predicates reject is charged once per frontier parent and an accepted one
// exactly once; on a predicate-free step that is |children(frontier) ∩
// nodes(label)|. The memoized downward matching recurses to ever larger step
// ids, so what it accepts and charges does not depend on the frontier's
// order, and neither do the step's totals.
func (e *twigEval) eval() []graph.NodeID {
	if len(e.q.Steps) == 0 {
		return nil
	}
	cur, next := e.a[:0], e.b[:0]
	first := &e.q.Steps[0]
	seeds := e.src.NodesWithLabel(first.Label)
	for i := range seeds.Len() {
		id := seeds.At(i)
		e.visited++
		if e.stepOK(id, first) {
			cur = append(cur, id)
		}
	}
	for pos := 1; pos < len(e.q.Steps) && len(cur) > 0; pos++ {
		e.inNext.Reset(e.src.NumNodes())
		next = next[:0]
		step := &e.q.Steps[pos]
		for _, n := range cur {
			for _, c := range e.src.Children(n) {
				if e.src.Label(c) != step.Label || e.inNext.Contains(c) {
					continue
				}
				e.visited++
				if e.stepOK(c, step) {
					e.inNext.Add(c)
					next = append(next, c)
				}
			}
		}
		cur, next = next, cur
	}
	slices.Sort(cur) // label-list seeds are ascending, later frontiers not
	e.a, e.b = cur, next
	if len(cur) == 0 {
		return nil
	}
	return cur
}

// matchesEndingAt reports whether some trunk instance ends at node n, with
// every trunk node satisfying its predicates; the validation primitive. The
// trunk memo is scoped to one call (emptied on entry); the predicate memo is
// shared by every call on the evaluator.
func (e *twigEval) matchesEndingAt(n graph.NodeID) bool {
	e.trunk.reset()
	return e.trunkEndsAt(n, len(e.q.Steps)-1)
}

// trunkEndsAt reports whether trunk steps 0..i match some node path ending
// at n.
func (e *twigEval) trunkEndsAt(n graph.NodeID, i int) bool {
	e.visited++
	if !e.stepOK(n, &e.q.Steps[i]) {
		return false
	}
	if i == 0 {
		return true
	}
	memo, key := &e.trunk, memoKey(i, n)
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

// sound reports whether matched index node m's whole extent answers the
// query, with no validation. The rule is per kind. A simple path trusts m
// when k(m) covers its length, the paper's rule. A twig trusts only an
// F&B-stable index (BuildFB): forward-and-backward bisimilar extents agree on
// both the trunk's incoming paths and every predicate's downward pattern,
// while backward bisimilarity alone says nothing about child structure.
func (e *twigEval) sound(ig *index.IndexGraph, m graph.NodeID) bool {
	if e.path {
		return ig.K(m) >= e.q.Length()
	}
	return ig.FBStable()
}

// onIndex runs e's trunk over ig, e's source, and resolves every match: a
// sound index node contributes its extent wholesale, compressed, to the
// Answer; any other is validated member by member against the data graph, by
// one fresh evaluator per extent, whose members share the predicate memo, so
// later members ride on charges earlier ones paid. The match and the
// validation are traced as "match" and "validate" spans; nil traces are free
// and never change the counters. each, when non-nil, hears every matched node
// in ascending order, with whether it was validated and how many of its
// members the answer kept.
func (e *twigEval) onIndex(ig *index.IndexGraph, tr *obs.Trace, each func(m graph.NodeID, validated bool, kept int)) (Answer, Cost) {
	st := tr.StageStart()
	matched := e.eval()
	tr.EndStage("match", st)
	c := Cost{IndexNodesVisited: e.visited}
	st = tr.StageStart()
	data, q := ig.Data(), e.q
	validate := func(dst, members []graph.NodeID) ([]graph.NodeID, int) {
		ev := newTwigEval(data, q)
		for _, d := range members {
			if ev.matchesEndingAt(d) {
				dst = append(dst, d)
			}
		}
		charged := ev.visited
		ev.release()
		return dst, charged
	}
	vs := valScratchPool.Get().(*valScratch)
	for _, m := range matched {
		validated, kept := !e.sound(ig, m), 0
		if validated {
			c.Validations++
			vs.ext = ig.AppendExtent(vs.ext[:0], m)
			before := len(vs.hits)
			var charged int
			vs.hits, charged = validate(vs.hits, vs.ext)
			c.DataNodesValidated += charged
			kept = len(vs.hits) - before
		} else {
			ext := ig.ExtentSet(m)
			vs.sound = append(vs.sound, ext)
			kept = ext.Len()
		}
		if each != nil {
			each(m, validated, kept)
		}
	}
	ans := vs.answer()
	tr.EndStage("validate", st)
	tr.RecordCost(c.IndexNodesVisited, c.DataNodesValidated, c.Validations, ans.Len())
	return ans, c
}

// DataTwig evaluates a branching path query directly on the data graph.
func DataTwig(g *graph.Graph, q *Twig) ([]graph.NodeID, Cost) {
	e := newTwigEval(g, q)
	defer e.release()
	res := slices.Clone(e.eval())
	return res, Cost{IndexNodesVisited: e.visited}
}

// IndexTwig evaluates a branching path query on a structural summary:
// matched extents are trusted on an F&B-stable index and validated member by
// member on any other (see sound).
func IndexTwig(ig *index.IndexGraph, q *Twig) ([]graph.NodeID, Cost) {
	return materialize(IndexTwigTraced(ig, q, nil))
}

// IndexTwigTraced is IndexTwig returning the unmerged Answer, with per-stage
// tracing ("match" and "validate" spans, cost counters copied onto the
// trace). Nil traces are free and never change the counters.
func IndexTwigTraced(ig *index.IndexGraph, q *Twig, tr *obs.Trace) (Answer, Cost) {
	e := newTwigEval(ig, q)
	defer e.release()
	return e.onIndex(ig, tr, nil)
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
