// Package core implements the D(k)-index, the paper's primary contribution:
// an adaptive structural summary whose index nodes carry individual local
// similarities k(n), constrained by the structural invariant
// k(parent) >= k(child) - 1 (Definition 3) and tuned from the query load.
//
// The package provides the construction algorithm (Algorithms 1 and 2), the
// update algorithms for data change — subgraph addition (Algorithm 3) and
// edge addition (Algorithms 4 and 5) — and the promoting and demoting
// processes for query-load change (Algorithm 6 and Section 5.4).
package core

import (
	"slices"
	"strconv"

	"dkindex/internal/graph"
)

// Requirements maps label ids to the local similarity the query load demands
// of index nodes carrying that label. Labels absent from the map default to
// requirement 0 (Section 4.2). A nil map is a valid "no requirements" value.
type Requirements map[graph.LabelID]int

// MaxK is the largest local similarity anything outside the Go API may ask
// for: a k or requirement sent over the network, a mined requirement, an
// automatic promotion. Construction runs one refinement round per level under
// the writer mutex, so an unbounded k is an unbounded stall of every write;
// a query longer than MaxK is answered by validation instead. dkindex.MaxK
// exports it.
const MaxK = 64

// ReqsFromNames builds Requirements from label names, interning names that
// the table has not seen yet (a requirement may precede the data that uses
// the label).
func ReqsFromNames(t *graph.LabelTable, byName map[string]int) Requirements {
	r := make(Requirements, len(byName))
	for name, k := range byName {
		r[t.Intern(name)] = k
	}
	return r
}

// Get returns the requirement for label l (0 when absent).
func (r Requirements) Get(l graph.LabelID) int { return r[l] }

// Clone returns an independent copy.
func (r Requirements) Clone() Requirements {
	c := make(Requirements, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Max returns the largest requirement (0 for empty requirements).
func (r Requirements) Max() int {
	max := 0
	for _, v := range r {
		if v > max {
			max = v
		}
	}
	return max
}

// AtMost reports whether every requirement in r is <= the corresponding
// requirement in other. It is the precondition of the demoting process
// (shrinking means lowering requirements).
func (r Requirements) AtMost(other Requirements) bool {
	for l, v := range r {
		if v > other.Get(l) {
			return false
		}
	}
	return true
}

// broadcastGraph is the adjacency view Algorithm 1 needs: for each node of
// the label-split index graph, its parent nodes.
type broadcastGraph interface {
	NumNodes() int
	Parents(n graph.NodeID) []graph.NodeID
}

// broadcast runs Algorithm 1 (the Local Similarity Broadcast Algorithm) over
// a label-split index graph whose nodes start with the query-load
// requirements in reqs. It raises parents until every edge n_i -> n_j
// satisfies req(n_i) >= req(n_j) - 1 and returns the updated per-node values.
//
// Nodes are processed in descending requirement order with a bucket queue:
// raising a parent to k-1 enqueues it in a strictly lower bucket, so each
// node is raised at most once per distinct level and the total work is O(m)
// in the number of label-split edges, as the paper states.
func broadcast(g broadcastGraph, reqs []int) []int {
	out := append([]int(nil), reqs...)
	maxK := 0
	for _, k := range out {
		if k > maxK {
			maxK = k
		}
	}
	if maxK == 0 {
		return out
	}
	buckets := make([][]graph.NodeID, maxK+1)
	for n, k := range out {
		if k > 0 {
			buckets[k] = append(buckets[k], graph.NodeID(n))
		}
	}
	for k := maxK; k >= 1; k-- {
		for i := 0; i < len(buckets[k]); i++ { // bucket may grow while iterating
			n := buckets[k][i]
			if out[n] != k {
				continue // raised past k after being enqueued; the higher pass covered it
			}
			for _, p := range g.Parents(n) {
				if out[p] < k-1 {
					out[p] = k - 1
					buckets[k-1] = append(buckets[k-1], p)
				}
			}
		}
	}
	return out
}

// SortedLabels returns the requirement labels in deterministic order; used
// for stable iteration in reports and tests.
func (r Requirements) SortedLabels() []graph.LabelID {
	out := make([]graph.LabelID, 0, len(r))
	for l := range r {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// String renders requirements with a label table for diagnostics.
func (r Requirements) Format(t *graph.LabelTable) string {
	s := "{"
	for i, l := range r.SortedLabels() {
		if i > 0 {
			s += " "
		}
		s += t.Name(l) + ":" + strconv.Itoa(r[l])
	}
	return s + "}"
}
