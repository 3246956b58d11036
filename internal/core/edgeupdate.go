package core

import (
	"math/bits"
	"slices"

	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// maxTrackedPaths bounds the label-path sets maintained by Algorithm 4. The
// sets can in principle grow exponentially with the similarity being probed;
// beyond this budget the algorithm stops and returns the similarity proven
// so far, which is always sound (a smaller k only means more validation).
const maxTrackedPaths = 4096

// maxProbedSimilarity caps how far Algorithm 4 probes. Index nodes marked
// Exact would otherwise make the probe loop effectively unbounded (cyclic
// graphs can keep matching forever). 64 is far beyond any practical path
// expression length, and stopping early is always sound.
const maxProbedSimilarity = 64

// UpdateScratch is the working memory of the edge updates: Algorithm 4's
// label-path sets and the breadth-first lowering of Algorithm 5 and
// RemoveEdge. Its tables are emptied by bumping an epoch stamp and its lists
// by truncation, so it grows to the largest update it served and the next
// one reuses it. The zero value is ready. It is not safe for concurrent
// use: the facade keeps one per index and lends it to each batch clone under
// its writer mutex (DK.UseScratch).
type UpdateScratch struct {
	paths pathTable
	// The probe's occurrence sets, one label path and one index node packed
	// per entry (see occ): the current level's new and old paths and the
	// next level's.
	newOcc, oldOcc, nextNew, nextOld []uint64

	onPath stamps[int32]        // label path ids, for the probe
	onNode stamps[graph.NodeID] // index nodes queued by a lowering
	queue  []lowering
}

// lowering is one index node of a breadth-first lowering and its distance
// from the edge's target.
type lowering struct {
	n graph.NodeID
	d int
}

// occ packs an occurrence: label path id p starts at index node n.
func occ(p int32, n graph.NodeID) uint64 { return uint64(uint32(p))<<32 | uint64(uint32(n)) }

func occPath(o uint64) int32        { return int32(o >> 32) }
func occNode(o uint64) graph.NodeID { return graph.NodeID(uint32(o)) }

// stamps is a set of dense ids, epoch-stamped: emptying it is one
// increment, and the storage is wiped only when the stamp wraps.
type stamps[T ~int32] struct {
	mark []uint32
	cur  uint32
}

// reset empties the set and makes room for ids below n.
func (s *stamps[T]) reset(n int) {
	if s.cur++; s.cur == 0 {
		clear(s.mark)
		s.cur = 1
	}
	if len(s.mark) < n {
		s.mark = append(s.mark, make([]uint32, n-len(s.mark))...)
	}
}

func (s *stamps[T]) has(i T) bool { return s.mark[i] == s.cur }
func (s *stamps[T]) add(i T)      { s.mark[i] = s.cur }
func (s *stamps[T]) remove(i T)   { s.mark[i] = 0 }

// sortOccs sorts and dedupes occurrences and counts their distinct paths.
func sortOccs(os []uint64) ([]uint64, int) {
	slices.Sort(os)
	os = slices.Compact(os)
	paths := 0
	for i, o := range os {
		if i == 0 || occPath(o) != occPath(os[i-1]) {
			paths++
		}
	}
	return os, paths
}

// pathTable interns label paths: a path is its first label and the id of
// the path after it (rootPath for a one-label path), so equal label
// sequences get equal ids and a path is extended by one lookup. It is the
// epoch-stamped open-addressing table of eval's memoTable: reset is one
// increment and the storage is reused; ids are dense from 0 per epoch.
type pathTable struct {
	keys  []uint64
	ids   []int32
	cells []uint32 // the epoch that claimed the slot
	shift uint32   // 64 - log2(len(keys))
	used  int
	epoch uint32
}

// rootPath is the suffix of a one-label path.
const rootPath int32 = -1

func (t *pathTable) reset() {
	t.used = 0
	if t.epoch++; t.epoch == 0 { // stamp wrap-around: wipe
		clear(t.cells)
		t.epoch = 1
	}
}

// id returns the id of label l followed by the path suffix, interning it.
func (t *pathTable) id(l graph.LabelID, suffix int32) int32 {
	if 2*t.used >= len(t.keys) {
		t.grow()
	}
	key := uint64(uint32(l))<<32 | uint64(uint32(suffix))
	mask := uint64(len(t.keys) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & mask {
		if t.cells[i] != t.epoch {
			t.keys[i], t.ids[i], t.cells[i] = key, int32(t.used), t.epoch
			t.used++
			return t.ids[i]
		}
		if t.keys[i] == key {
			return t.ids[i]
		}
	}
}

// grow doubles the table and re-seats the current epoch's paths.
func (t *pathTable) grow() {
	keys, ids, cells := t.keys, t.ids, t.cells
	size := max(64, 2*len(keys))
	t.keys, t.ids, t.cells = make([]uint64, size), make([]int32, size), make([]uint32, size)
	t.shift = uint32(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for j, c := range cells {
		if c != t.epoch {
			continue
		}
		i := keys[j] * 0x9E3779B97F4A7C15 >> t.shift
		for t.cells[i] == t.epoch {
			i = (i + 1) & mask
		}
		t.keys[i], t.ids[i], t.cells[i] = keys[j], ids[j], t.epoch
	}
}

// LocalSimilarity is Algorithm 4: given the index endpoints U -> V of an
// edge about to be added, it computes the largest k_N <= min(k_U+1, k_V)
// such that every label path of length k_N entering V through U already
// matched V in the index graph before the edge existed. V's local similarity
// can then be reset to k_N instead of 0 after the edge addition.
//
// It must be called on the index graph *before* the new edge is inserted
// (the "original I_G" of the paper).
func (s *UpdateScratch) LocalSimilarity(ig *index.IndexGraph, u, v graph.NodeID) int {
	upbound := min(ig.K(u)+1, ig.K(v), maxProbedSimilarity)
	if upbound <= 0 {
		return 0
	}

	// Label paths are tracked together with the index nodes at which
	// matching occurrences start (the paper's S and S' sets). Extending a
	// path by a parent prepends its label.
	s.paths.reset()
	s.newOcc = append(s.newOcc[:0], occ(s.paths.id(ig.Label(u), rootPath), u))
	s.oldOcc = s.oldOcc[:0]
	for _, p := range ig.Parents(v) { // distinct parents: no duplicates
		s.oldOcc = append(s.oldOcc, occ(s.paths.id(ig.Label(p), rootPath), p))
	}

	kN := 0
	for kN < upbound {
		// Check: every new label path of the current length occurs among
		// the old label paths into V.
		s.onPath.reset(s.paths.used)
		for _, o := range s.oldOcc {
			s.onPath.add(occPath(o))
		}
		for _, o := range s.newOcc {
			if !s.onPath.has(occPath(o)) {
				return kN
			}
		}
		kN++
		if kN == upbound {
			return kN
		}
		// Extend by one parent level. Old paths are restricted to those
		// matching a new path first (the paper's OldLabelPathSet =
		// NewLabelPathSet step): longer paths can only match through the
		// suffixes that are still candidates.
		s.onPath.reset(s.paths.used)
		for _, o := range s.newOcc {
			s.onPath.add(occPath(o))
		}
		s.nextOld = s.nextOld[:0]
		for _, o := range s.oldOcc {
			if p := occPath(o); s.onPath.has(p) {
				for _, x := range ig.Parents(occNode(o)) {
					s.nextOld = append(s.nextOld, occ(s.paths.id(ig.Label(x), p), x))
				}
			}
		}
		s.nextNew = s.nextNew[:0]
		for _, o := range s.newOcc {
			p := occPath(o)
			for _, x := range ig.Parents(occNode(o)) {
				s.nextNew = append(s.nextNew, occ(s.paths.id(ig.Label(x), p), x))
			}
		}
		if len(s.nextNew) == 0 {
			// No longer new paths exist (U's ancestry is exhausted): every
			// longer path through U trivially matches. The similarity is
			// only capped by the upbound.
			return upbound
		}
		var newPaths, oldPaths int
		s.nextNew, newPaths = sortOccs(s.nextNew)
		s.nextOld, oldPaths = sortOccs(s.nextOld)
		if newPaths > maxTrackedPaths || oldPaths > maxTrackedPaths {
			return kN
		}
		s.newOcc, s.nextNew = s.nextNew, s.newOcc
		s.oldOcc, s.nextOld = s.nextOld, s.oldOcc
	}
	return kN
}

// AddEdge is Algorithm 5, the D(k)-index edge-addition update: insert the
// data edge u -> v, reset the local similarity of v's index node to the
// value justified by Algorithm 4, and propagate the lowering breadth-first
// so that Definition 3 holds again. Unlike the A(k) propagate baseline it
// never touches the data graph and never splits an extent: the index size is
// unchanged, only similarities decay (Section 5.2).
func (dk *DK) AddEdge(u, v graph.NodeID) index.UpdateStats {
	return dk.addEdge(u, v, true)
}

// AddEdgeNaive inserts the edge like AddEdge but skips Algorithm 4, always
// resetting the target's local similarity to zero (the "worst case" the
// paper's Figure 3 discussion contrasts against). It exists for the ablation
// that measures how much evaluation performance Algorithm 4's probe
// preserves; production code should use AddEdge.
func (dk *DK) AddEdgeNaive(u, v graph.NodeID) index.UpdateStats {
	return dk.addEdge(u, v, false)
}

func (dk *DK) addEdge(u, v graph.NodeID, probe bool) index.UpdateStats {
	var stats index.UpdateStats
	ig := dk.IG
	if ig.Data().HasEdge(u, v) {
		return stats // duplicate data edge: paths are unchanged
	}
	a, b := ig.IndexOf(u), ig.IndexOf(v)
	s := dk.updateScratch()
	kN := 0
	if probe {
		kN = s.LocalSimilarity(ig, a, b)
	}
	stats.IndexNodesVisited++ // V itself
	ig.AddDataEdge(u, v)
	if kN >= ig.K(b) {
		return stats // similarity fully preserved; nothing to propagate
	}
	ig.SetK(b, kN)

	// Breadth-first lowering: an index node r distant from V may keep no
	// more than k_N + r. A node leaves the queue when it is taken off it and
	// may enter again.
	s.onNode.reset(ig.NumNodes())
	s.queue = append(s.queue[:0], lowering{n: b})
	s.onNode.add(b)
	for head := 0; head < len(s.queue); head++ {
		w := s.queue[head].n
		s.onNode.remove(w)
		limit := ig.K(w) + 1
		for _, x := range ig.Children(w) {
			stats.IndexNodesVisited++
			if ig.K(x) > limit {
				ig.SetK(x, limit)
				if !s.onNode.has(x) {
					s.onNode.add(x)
					s.queue = append(s.queue, lowering{n: x})
				}
			}
		}
	}
	return stats
}

// RemoveEdge deletes the data edge u -> v and updates the index: the target
// class's local similarity is lowered (the deleted edge may have carried
// label paths other extent members keep, which would make higher claims
// unsound for v) and the lowering propagates breadth-first exactly as in
// Algorithm 5. The index never splits and the data graph is never
// traversed — deletion is as cheap as addition, which the paper's framework
// implies ("all other update operations can be built on these two basic
// cases") but does not spell out.
//
// Every label path v loses passes through the deleted edge, so if v retains
// another parent labeled like u, all of v's length-1 label paths survive and
// similarity 1 is kept (the one-level analogue of Algorithm 4 for
// deletions); otherwise the similarity drops to 0. Descendants are then
// lowered to that budget plus their index distance: a member w at data
// distance r below v only loses label paths longer than r plus the retained
// level, and index distance never exceeds data distance. (Deletions differ
// from additions here: an addition introduces no new label paths below the
// probed level, so the Definition 3 gap is the only thing to repair; a
// deletion invalidates member paths at every depth below v, so the lowering
// must be forced by distance even where the invariant already holds.)
func (dk *DK) RemoveEdge(u, v graph.NodeID) index.UpdateStats {
	var stats index.UpdateStats
	ig := dk.IG
	uLabel := ig.Data().Label(u)
	if !ig.RemoveDataEdge(u, v) {
		return stats
	}
	b := ig.IndexOf(v)
	stats.IndexNodesVisited++

	kept := 0
	for _, p := range ig.Data().Parents(v) {
		if ig.Data().Label(p) == uLabel {
			kept = 1 // another u-labeled parent spells every lost length-1 path
			break
		}
	}
	if kept >= ig.K(b) {
		// Descendants are covered by Definition 3: K(X) <= K(b)+dist <= kept+dist.
		return stats
	}
	ig.SetK(b, kept)

	// Forced breadth-first lowering: each reachable index node X gets
	// K(X) <= kept + dist(b, X). Stopping when a node needs no change is
	// safe because Definition 3 then bounds everything below it.
	s := dk.updateScratch()
	s.onNode.reset(ig.NumNodes())
	s.queue = append(s.queue[:0], lowering{n: b})
	s.onNode.add(b)
	for head := 0; head < len(s.queue); head++ {
		cur := s.queue[head]
		for _, x := range ig.Children(cur.n) {
			stats.IndexNodesVisited++
			limit := kept + cur.d + 1
			if ig.K(x) > limit {
				ig.SetK(x, limit)
				if !s.onNode.has(x) {
					s.onNode.add(x)
					s.queue = append(s.queue, lowering{x, cur.d + 1})
				}
			}
		}
	}
	return stats
}

// UseScratch lends s to this index's edge updates in place of the scratch it
// would allocate on its first one. Clone does not carry it.
func (dk *DK) UseScratch(s *UpdateScratch) { dk.scratch = s }

func (dk *DK) updateScratch() *UpdateScratch {
	if dk.scratch == nil {
		dk.scratch = new(UpdateScratch)
	}
	return dk.scratch
}
