// Package apex implements a simplified APEX index (Chung, Min, Shim —
// SIGMOD 2002), the workload-aware competitor the paper's related work
// contrasts the D(k)-index against. APEX maintains dedicated extents for
// *frequently used* label paths, organized as a trie over reversed paths, so
// hot queries resolve by a hash walk; queries outside the frequent set fall
// back to partial matching plus validation.
//
// The paper's criticism — "no algorithm was provided to update APEX due to
// the change of the source data" — is reproduced faithfully: this APEX must
// be rebuilt after data changes, which is exactly what the comparison
// experiment measures against the D(k)-index's incremental algorithms.
package apex

import (
	"fmt"
	"slices"
	"sort"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/workload"
)

// APEX is the frequent-path index: a trie keyed by query suffixes in reverse
// (last label first), each trie node holding the extent of data nodes the
// path ends at.
type APEX struct {
	data *graph.Graph
	root *trieNode
	// size is the total number of trie nodes with extents (the structure's
	// size metric, comparable to index-node counts).
	size int
	// minSupport is the frequency threshold paths needed to be indexed.
	minSupport int
}

type trieNode struct {
	children map[graph.LabelID]*trieNode
	// extent holds the nodes matched by the reversed path from the trie
	// root to here; nil for intermediate nodes that are not themselves
	// frequent paths.
	extent []graph.NodeID
	// depth is the number of labels on the path to this node.
	depth int
}

// Build constructs the APEX for the observed load: every distinct query
// (and, transitively, every suffix of it) whose total frequency reaches
// minSupport gets a dedicated extent, computed once against the data graph.
func Build(g *graph.Graph, load []workload.WeightedQuery, minSupport int) (*APEX, error) {
	if minSupport <= 0 {
		minSupport = 1
	}
	if len(load) == 0 {
		return nil, fmt.Errorf("apex: empty load")
	}
	// Frequency of every suffix across the load: a query contributes its
	// count to each of its suffixes (the trie resolves queries by longest
	// indexed suffix, so suffix support is what matters).
	type key string
	freq := make(map[key]int)
	suffixes := make(map[key]eval.Query)
	for _, wq := range load {
		for s := 0; s < len(wq.Q); s++ {
			suf := wq.Q[s:]
			k := key(encode(suf))
			freq[k] += wq.Count
			if _, ok := suffixes[k]; !ok {
				suffixes[k] = append(eval.Query(nil), suf...)
			}
		}
	}

	a := &APEX{
		data:       g,
		root:       &trieNode{children: make(map[graph.LabelID]*trieNode)},
		minSupport: minSupport,
	}
	// Deterministic insertion order.
	keys := make([]string, 0, len(freq))
	for k := range freq {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		if freq[key(k)] < minSupport {
			continue
		}
		q := suffixes[key(k)]
		ext, _ := eval.Data(g, q)
		a.insert(q, ext)
	}
	if a.size == 0 {
		return nil, fmt.Errorf("apex: no path reached support %d", minSupport)
	}
	return a, nil
}

func encode(q eval.Query) string {
	b := make([]byte, 0, len(q)*4)
	for _, l := range q {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

// insert stores the extent for q, walking the trie by reversed labels.
func (a *APEX) insert(q eval.Query, ext []graph.NodeID) {
	cur := a.root
	for i := len(q) - 1; i >= 0; i-- {
		l := q[i]
		next, ok := cur.children[l]
		if !ok {
			next = &trieNode{children: make(map[graph.LabelID]*trieNode), depth: cur.depth + 1}
			cur.children[l] = next
		}
		cur = next
	}
	if cur.extent == nil {
		a.size++
	}
	cur.extent = ext
}

// Size returns the number of indexed paths (trie nodes with extents).
func (a *APEX) Size() int { return a.size }

// StoredNodes returns the total extent storage (data-node references held).
func (a *APEX) StoredNodes() int {
	total := 0
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		total += len(n.extent)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(a.root)
	return total
}

// Eval answers q: it walks the trie by the query's reversed labels to the
// deepest indexed suffix. A full match returns the stored extent directly (a
// hash-walk hit, the APEX fast path). A partial match validates the stored
// extent against the whole query; no match falls back to direct evaluation.
// Costs follow the paper's model: trie hops count as index visits,
// validation and fallback charge data-node visits.
func (a *APEX) Eval(q eval.Query) ([]graph.NodeID, eval.Cost) {
	var cost eval.Cost
	cur := a.root
	var deepest *trieNode
	var deepestLen int
	for i := len(q) - 1; i >= 0; i-- {
		next, ok := cur.children[q[i]]
		if !ok {
			break
		}
		cost.IndexNodesVisited++
		cur = next
		if cur.extent != nil {
			deepest = cur
			deepestLen = len(q) - i
		}
	}
	switch {
	case deepest != nil && deepestLen == len(q):
		// Exact hit: the whole query is an indexed path.
		out := append([]graph.NodeID(nil), deepest.extent...)
		return out, cost
	case deepest != nil:
		// Suffix hit: candidates are right, prefix must be validated.
		cost.Validations++
		var out []graph.NodeID
		for _, d := range deepest.extent {
			ok, charged := eval.MatchesNode(a.data, q, d)
			cost.DataNodesValidated += charged
			if ok {
				out = append(out, d)
			}
		}
		slices.Sort(out)
		return out, cost
	default:
		// Cold query: full scan of the data graph.
		cost.Validations++
		res, c := eval.Data(a.data, q)
		cost.DataNodesValidated += c.IndexNodesVisited
		return res, cost
	}
}

// Rebuild reconstructs the APEX against the (presumably mutated) data graph
// with the same load and support — the only update mechanism the original
// proposal provides for data changes.
func (a *APEX) Rebuild(load []workload.WeightedQuery) (*APEX, error) {
	return Build(a.data, load, a.minSupport)
}
