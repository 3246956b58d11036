package workload

import (
	"fmt"
	"sort"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
)

// The paper's first future-work direction is mining query patterns from
// query loads: the simple "longest query per result label" rule ignores
// frequencies and index-size budgets. This file provides a greedy
// budget-aware miner that picks the requirements with the best marginal
// cost-saved-per-node-added ratio; recorder.go provides the online load
// recorder that feeds it.

// WeightedQuery is a query with its observed frequency.
type WeightedQuery struct {
	Q     eval.Query
	Count int
}

// TuneStep records one accepted move of the greedy miner.
type TuneStep struct {
	Label graph.LabelID
	K     int
	// Size and Cost are the index size and weighted average query cost
	// after accepting the move.
	Size int
	Cost float64
}

// TuneResult is the outcome of budget-aware mining.
type TuneResult struct {
	Reqs Requirements
	// Size and Cost describe the final index.
	Size int
	Cost float64
	// Steps traces the accepted moves in order.
	Steps []TuneStep
}

// Requirements is re-exported so callers need not import core for the
// common flow.
type Requirements = core.Requirements

// MineBudget greedily chooses per-label requirements for the observed load
// under an index-size budget: starting from the label-split graph, it
// repeatedly raises the (label, level) candidate with the best ratio of
// weighted evaluation cost saved to index nodes added, while the resulting
// index stays within sizeBudget. A sizeBudget <= 0 means unbounded, which
// converges to the classic longest-query rule or better.
//
// Candidates are the (result label, query length) pairs present in the
// load, so the search space is small; each evaluation builds a D(k)-index
// (O(k*m)) and measures the load on it.
func MineBudget(g *graph.Graph, load []WeightedQuery, sizeBudget int) (*TuneResult, error) {
	if len(load) == 0 {
		return nil, fmt.Errorf("workload: empty load")
	}

	// Candidate moves: for each result label, the distinct query lengths
	// that reach it, ascending (raising to a level subsumes lower levels),
	// clamped to core.MaxK — a longer recorded path is one candidate at the
	// bound, not thousands of refinement rounds.
	cand := make(map[graph.LabelID][]int)
	for _, wq := range load {
		last := wq.Q[len(wq.Q)-1]
		m := min(wq.Q.Length(), core.MaxK)
		if m <= 0 {
			continue
		}
		found := false
		for _, v := range cand[last] {
			if v == m {
				found = true
				break
			}
		}
		if !found {
			cand[last] = append(cand[last], m)
		}
	}
	for _, ls := range cand {
		sort.Ints(ls)
	}

	measure := func(reqs Requirements) (int, float64) {
		dk := core.Build(g, reqs)
		total := 0.0
		weight := 0
		for _, wq := range load {
			ans, c := eval.IndexTraced(dk.IG, wq.Q, nil) // the cost alone: nothing is listed
			ans.Release()
			total += float64(c.Total() * wq.Count)
			weight += wq.Count
		}
		return dk.Size(), total / float64(weight)
	}

	reqs := make(Requirements)
	size, cost := measure(reqs)
	res := &TuneResult{Reqs: reqs, Size: size, Cost: cost}

	for {
		best := move{}
		bestRatio := 0.0
		var bestSize int
		var bestCost float64
		for l, levels := range cand {
			for _, k := range levels {
				if reqs.Get(l) >= k {
					continue
				}
				trial := reqs.Clone()
				trial[l] = k
				tSize, tCost := measure(trial)
				if sizeBudget > 0 && tSize > sizeBudget {
					continue
				}
				saved := cost - tCost
				if saved <= 0 {
					continue
				}
				grew := float64(tSize - size)
				if grew < 1 {
					grew = 1
				}
				ratio := saved / grew
				if ratio > bestRatio || (ratio == bestRatio && better(move{l, k}, best)) {
					bestRatio = ratio
					best = move{l, k}
					bestSize, bestCost = tSize, tCost
				}
			}
		}
		if bestRatio == 0 {
			break
		}
		reqs[best.label] = best.k
		size, cost = bestSize, bestCost
		res.Steps = append(res.Steps, TuneStep{Label: best.label, K: best.k, Size: size, Cost: cost})
	}
	res.Reqs = reqs
	res.Size = size
	res.Cost = cost
	return res, nil
}

// better breaks exact ratio ties deterministically.
func better(a, b move) bool {
	if b.label == 0 && b.k == 0 {
		return true
	}
	if a.label != b.label {
		return a.label < b.label
	}
	return a.k < b.k
}

// move is declared at package scope for the tie-breaker.
type move struct {
	label graph.LabelID
	k     int
}
