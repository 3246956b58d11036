package core

import (
	"sort"

	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// Promote raises the local similarity of index node v to at least kn
// (Algorithm 6, the promoting process). Parents are first promoted
// recursively to kn-1, then v's extent is split against Succ of each parent
// until stable; every fragment receives similarity kn. Promotion is the
// maintenance operation that recovers evaluation performance after
// edge-addition updates have decayed similarities (Section 5.3).
//
// It returns statistics about the work performed (fragments created, index
// nodes visited).
func (dk *DK) Promote(v graph.NodeID, kn int) index.UpdateStats {
	var stats index.UpdateStats
	dk.promote(v, kn, make(map[graph.NodeID]int), &stats)
	return stats
}

func (dk *DK) promote(v graph.NodeID, kn int, visiting map[graph.NodeID]int, stats *index.UpdateStats) {
	ig := dk.IG
	stats.IndexNodesVisited++
	if kn <= 0 || ig.K(v) >= kn {
		return
	}
	// Cycle guard: on cyclic index graphs the recursion can reach v again
	// through its own ancestry. An in-progress promotion at an equal or
	// higher target already covers the request.
	if prev, ok := visiting[v]; ok && prev >= kn {
		return
	}
	visiting[v] = kn

	// Step 2: promote every parent to kn-1. Promoting one parent can split
	// *another* parent of v (when it is also an ancestor of the first), and
	// the new fragment inherits the pre-promotion similarity — so re-scan
	// the current parent list until every parent meets the bar or no
	// further progress is possible (in-progress cycle promotions finish
	// later in the enclosing call).
	attempted := make(map[graph.NodeID]bool)
	for {
		progressed := false
		for _, w := range ig.Parents(v) {
			if ig.K(w) >= kn-1 || attempted[w] {
				continue // attempted parents that stayed low are cycle-capped;
				// the final per-fragment claim accounts for them
			}
			if prev, ok := visiting[w]; ok && prev >= kn-1 {
				continue // cycle: an enclosing call is promoting w
			}
			attempted[w] = true
			dk.promote(w, kn-1, visiting, stats)
			progressed = true
		}
		if !progressed {
			break
		}
	}

	// Step 3: split extent(v) into V ∩ Succ(W) and V − Succ(W) for each
	// parent W, applying every splitter to every fragment produced so far.
	// When v's label nests under itself, fragments of v become parents of
	// one another, so the splitter set is re-gathered from the current
	// fragments until no split fires: every fragment ends up contained in
	// Succ(W) for each of its parents W — the stability Theorem 1 needs.
	frags := []graph.NodeID{v}
	for {
		changed := false
		seen := make(map[graph.NodeID]bool)
		var splitters []graph.NodeID
		for _, f := range frags {
			for _, w := range ig.Parents(f) {
				if !seen[w] {
					seen[w] = true
					splitters = append(splitters, w)
				}
			}
		}
		for _, w := range splitters {
			for i := 0; i < len(frags); i++ {
				if nf, ok := ig.SplitBySuccOf(frags[i], w); ok {
					frags = append(frags, nf)
					stats.IndexNodesCreated++
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Claim kn on each fragment, capped by what its parents actually
	// provide: a parent skipped by the cycle guard may still be below kn-1,
	// and a node's similarity can never soundly exceed its weakest parent's
	// plus one. Claims are raised to a fixpoint because fragments may parent
	// each other (their mutual stability is what makes the mutual raise
	// sound); raising never drops an established similarity.
	for {
		changed := false
		for _, f := range frags {
			claim := kn
			for _, w := range ig.Parents(f) {
				if limit := ig.K(w) + 1; limit < claim {
					claim = limit
				}
			}
			if claim > ig.K(f) {
				ig.SetK(f, claim)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	delete(visiting, v)
}

// PromoteBatch promotes a set of index nodes to new local similarities. As
// the paper recommends, nodes with higher targets are promoted first: their
// recursive ancestor promotions subsume part of the work for lower targets.
func (dk *DK) PromoteBatch(targets map[graph.NodeID]int) index.UpdateStats {
	type target struct {
		n graph.NodeID
		k int
	}
	order := make([]target, 0, len(targets))
	for n, k := range targets {
		order = append(order, target{n, k})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].k != order[j].k {
			return order[i].k > order[j].k
		}
		return order[i].n < order[j].n
	})
	var stats index.UpdateStats
	for _, t := range order {
		stats.Add(dk.Promote(t.n, t.k))
	}
	return stats
}

// PromoteLabel promotes every index node carrying the given label to local
// similarity kn and records the new query-load requirement. This is the
// label-granularity tuning entry point: when the query load starts reaching
// a label through longer paths, promote it.
func (dk *DK) PromoteLabel(l graph.LabelID, kn int) index.UpdateStats {
	ig := dk.IG
	var stats index.UpdateStats
	// When the label participates in a cycle of the label graph (an element
	// nesting under itself through other labels), a single promotion pass
	// can only raise similarities by the level its parents already provide.
	// Each additional pass soundly lifts the cycle one level further, so
	// iterate until the target is met or a pass makes no progress.
	for pass := 0; pass <= kn+1; pass++ {
		targets := make(map[graph.NodeID]int)
		nodes := ig.NodesWithLabel(l) // read per pass: splits append to it
		for i := range nodes.Len() {
			if n := nodes.At(i); ig.K(n) < kn {
				targets[n] = kn
			}
		}
		if len(targets) == 0 {
			break
		}
		before := labelMinK(ig, l)
		stats.Add(dk.PromoteBatch(targets))
		if labelMinK(ig, l) <= before {
			break // no progress: structurally capped (e.g. tight cycles)
		}
	}
	if dk.LabelReqs[l] < kn {
		// Clone shares the map, so it is replaced, never written in place.
		reqs := dk.LabelReqs.Clone()
		reqs[l] = kn
		dk.LabelReqs = reqs
	}
	return stats
}

// labelMinK returns the smallest similarity among index nodes with label l
// (or a large value when the label is absent).
func labelMinK(ig *index.IndexGraph, l graph.LabelID) int {
	least := index.Exact
	nodes := ig.NodesWithLabel(l)
	for i := range nodes.Len() {
		least = min(least, ig.K(nodes.At(i)))
	}
	return least
}

// Demote shrinks the index for a lowered set of query-load requirements
// (Section 5.4): the current index graph, being a refinement of the target
// D(k)-index, is treated as a data graph and the target is constructed from
// it directly (Theorem 2) — extents of merged index nodes are unioned, and
// no reference to the data graph is needed.
//
// The returned index replaces the receiver's contents. Requirements that
// exceed what the current index actually provides are clamped (demotion can
// only lower similarities; use Promote to raise them).
func (dk *DK) Demote(newReqs Requirements) {
	nd := BuildFromIndex(dk.IG, newReqs)
	dk.IG = nd.IG
	dk.LabelReqs = nd.LabelReqs
	dk.Stats = nd.Stats
}
