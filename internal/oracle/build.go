package oracle

import (
	"slices"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/partition"
)

// DK is a D(k)-index as the oracle builds it: index node i carries label
// Label[i] and local similarity K[i], holds the data nodes Extent[i], and
// has index edges to Children[i] and from Parents[i], each list ascending.
// Rounds, Splits and PeakBlocks count the construction as core.BuildStats
// does.
type DK struct {
	Label                      []graph.LabelID
	K                          []int
	Extent, Children, Parents  [][]graph.NodeID
	Rounds, Splits, PeakBlocks int
}

// BuildDK builds the D(k)-index of g for the per-label requirements reqs
// (labels absent from reqs require 0).
func BuildDK(g *graph.Graph, reqs map[graph.LabelID]int) *DK {
	return buildDK(g, g, func(n graph.NodeID) []graph.NodeID { return []graph.NodeID{n} }, nil, reqs)
}

// BuildDKFromIndex builds the D(k)-index with the index graph ig as the
// construction source (Theorem 2): a result node's extent is the union of
// the extents merged into it, and its similarity is at most the weakest of
// theirs.
func BuildDKFromIndex(ig *index.IndexGraph, reqs map[graph.LabelID]int) *DK {
	return buildDK(ig, ig.Data(), ig.Extent, ig.K, reqs)
}

// buildDK runs Algorithms 1 and 2 over src, whose node n stands for the data
// nodes extent(n) of data and, when memberK is not nil, is similar to depth
// memberK(n) at most.
func buildDK(src partition.Labeled, data *graph.Graph, extent func(graph.NodeID) []graph.NodeID, memberK func(graph.NodeID) int, reqs map[graph.LabelID]int) *DK {
	p := NewByLabel(src)
	req := make([]int, p.NumBlocks())
	for b, mem := range p.members {
		req[b] = reqs[src.Label(mem[0])]
	}
	// Algorithm 1 on the label split: raise a parent block until every edge
	// a -> b has req(a) >= req(b) - 1.
	for changed := true; changed; {
		changed = false
		for n := range src.NumNodes() {
			b := p.blockOf[n]
			for _, par := range src.Parents(graph.NodeID(n)) {
				if a := p.blockOf[par]; req[a] < req[b]-1 {
					req[a], changed = req[b]-1, true
				}
			}
		}
	}
	// Algorithm 2: round k splits every block requiring k or more against
	// the previous round's blocks; a fragment inherits its block's
	// requirement.
	kmax := 0
	for _, r := range req {
		kmax = max(kmax, r)
	}
	labelBlocks := p.NumBlocks()
	for k := 1; k <= kmax; k++ {
		res := p.Round(src.Parents, func(b partition.BlockID) bool { return req[b] >= k })
		next := make([]int, len(res.Origin))
		for b, o := range res.Origin {
			next[b] = req[o]
		}
		req = next
	}
	d := &DK{K: req, Rounds: kmax, Splits: p.NumBlocks() - labelBlocks, PeakBlocks: p.NumBlocks()}
	nodeOf := make([]graph.NodeID, data.NumNodes())
	for b, mem := range p.members {
		var ext []graph.NodeID
		for _, m := range mem {
			ext = append(ext, extent(m)...)
			if memberK != nil {
				d.K[b] = min(d.K[b], memberK(m))
			}
		}
		slices.Sort(ext)
		for _, x := range ext {
			nodeOf[x] = graph.NodeID(b)
		}
		d.Label, d.Extent = append(d.Label, src.Label(mem[0])), append(d.Extent, ext)
	}
	// An index edge a -> b wherever a data edge leaves a's extent for b's.
	d.Children, d.Parents = make([][]graph.NodeID, p.NumBlocks()), make([][]graph.NodeID, p.NumBlocks())
	for u := range data.NumNodes() {
		for _, v := range data.Children(graph.NodeID(u)) {
			a, b := nodeOf[u], nodeOf[v]
			d.Children[a], d.Parents[b] = append(d.Children[a], b), append(d.Parents[b], a)
		}
	}
	for i := range d.Children {
		slices.Sort(d.Children[i])
		slices.Sort(d.Parents[i])
		d.Children[i], d.Parents[i] = slices.Compact(d.Children[i]), slices.Compact(d.Parents[i])
	}
	// Definition 3: lower until every edge a -> b has k(b) <= k(a) + 1. Only
	// clamping can break it, so on a build from the data graph this checks
	// that the broadcast and the rounds kept it.
	for changed := true; changed; {
		changed = false
		for a, children := range d.Children {
			for _, b := range children {
				if d.K[b] > d.K[a]+1 {
					d.K[b], changed = d.K[a]+1, true
				}
			}
		}
	}
	return d
}
