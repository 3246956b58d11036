package oracle

import (
	"slices"
	"strconv"

	"dkindex/internal/graph"
	"dkindex/internal/partition"
)

// Blocks is what Identical compares: a *partition.Partition and the oracle's
// Partition are both Blocks.
type Blocks interface {
	NumNodes() int
	NumBlocks() int
	BlockOf(n graph.NodeID) partition.BlockID
	Members(b partition.BlockID) []graph.NodeID
}

// Identical reports whether a and b are block-identical: the same blocks
// under the same numbering, each listing its members in ascending order.
// That is stronger than inducing the same equivalence, and it is what the
// refiner promises.
func Identical(a, b Blocks) bool {
	if a.NumNodes() != b.NumNodes() || a.NumBlocks() != b.NumBlocks() {
		return false
	}
	for n := range a.NumNodes() {
		if a.BlockOf(graph.NodeID(n)) != b.BlockOf(graph.NodeID(n)) {
			return false
		}
	}
	for blk := range a.NumBlocks() {
		if !slices.Equal(a.Members(partition.BlockID(blk)), b.Members(partition.BlockID(blk))) {
			return false
		}
	}
	return true
}

// Partition is the oracle's own block assignment of a graph's nodes.
type Partition struct {
	blockOf []partition.BlockID
	members [][]graph.NodeID
}

// NumNodes, NumBlocks, BlockOf and Members make a Partition Blocks.
func (p *Partition) NumNodes() int                              { return len(p.blockOf) }
func (p *Partition) NumBlocks() int                             { return len(p.members) }
func (p *Partition) BlockOf(n graph.NodeID) partition.BlockID   { return p.blockOf[n] }
func (p *Partition) Members(b partition.BlockID) []graph.NodeID { return p.members[b] }

// regroup renumbers the n nodes by key, numbering blocks by the first node of
// each key in node order, and returns the old block of each new block's
// first node (nil on a partition that had no blocks yet).
func (p *Partition) regroup(n int, key func(n graph.NodeID) string) (origin []partition.BlockID) {
	ids := map[string]partition.BlockID{}
	blockOf := make([]partition.BlockID, n)
	for i := range blockOf {
		k := key(graph.NodeID(i))
		b, ok := ids[k]
		if !ok {
			b = partition.BlockID(len(ids))
			ids[k] = b
			if p.blockOf != nil {
				origin = append(origin, p.blockOf[i])
			}
		}
		blockOf[i] = b
	}
	p.blockOf, p.members = blockOf, make([][]graph.NodeID, len(ids))
	for i, b := range blockOf {
		p.members[b] = append(p.members[b], graph.NodeID(i))
	}
	return origin
}

// NewByLabel returns the label split of g: one block per label, numbered by
// first occurrence in node order.
func NewByLabel(g partition.Labeled) *Partition {
	p := new(Partition)
	p.regroup(g.NumNodes(), func(n graph.NodeID) string { return strconv.Itoa(int(g.Label(n))) })
	return p
}

// Round refines p by one bisimulation level: every node of a selected block
// (all blocks when selected is nil) regroups by its block and the set of its
// neighbours' blocks, every unselected block stays whole, and blocks are
// renumbered by first occurrence in node order. Origin maps each new block
// to the block it came from.
func (p *Partition) Round(neighbors func(graph.NodeID) []graph.NodeID, selected func(partition.BlockID) bool) partition.RefineResult {
	before, prev := p.NumBlocks(), p.blockOf
	origin := p.regroup(len(prev), func(n graph.NodeID) string {
		key := strconv.Itoa(int(prev[n]))
		if selected != nil && !selected(prev[n]) {
			return key + "*"
		}
		var around []partition.BlockID
		for _, m := range neighbors(n) {
			around = append(around, prev[m])
		}
		slices.Sort(around)
		for _, b := range slices.Compact(around) {
			key += "," + strconv.Itoa(int(b))
		}
		return key
	})
	return partition.RefineResult{Origin: origin, Changed: p.NumBlocks() != before}
}

// KBisimulation returns the k-bisimulation of g and the number of rounds
// that changed it.
func KBisimulation(g partition.Labeled, k int) (*Partition, int) {
	p := NewByLabel(g)
	for i := range k {
		if !p.Round(g.Parents, nil).Changed {
			return p, i
		}
	}
	return p, max(k, 0)
}

// Bisimulation returns the backward bisimulation of g and its depth.
func Bisimulation(g partition.Labeled) (*Partition, int) {
	p := NewByLabel(g)
	depth := 0
	for p.Round(g.Parents, nil).Changed {
		depth++
	}
	return p, depth
}

// FBBisimulation returns the forward and backward bisimulation of g: a
// backward and a forward round alternate until neither changes anything.
func FBBisimulation(g partition.ChildrenAccess) (*Partition, int) {
	p := NewByLabel(g)
	rounds := 0
	for {
		back := p.Round(g.Parents, nil).Changed
		if fwd := p.Round(g.Children, nil).Changed; !back && !fwd {
			return p, rounds
		}
		rounds++
	}
}

// Splitter computes the backward bisimulation the Paige–Tarjan way, with no
// rounds at all: a worklist of splitter blocks S, each splitting every block
// that meets Succ(S) (the children of S's members) into the part inside
// Succ(S) and the part outside, and queueing both parts. Its numbering is
// its own; compare it by grouping, not with Identical.
func Splitter(g partition.ChildrenAccess) *Partition {
	p := NewByLabel(g)
	var work []partition.BlockID
	waiting := map[partition.BlockID]bool{}
	push := func(b partition.BlockID) {
		if !waiting[b] {
			waiting[b] = true
			work = append(work, b)
		}
	}
	for b := range p.NumBlocks() {
		push(partition.BlockID(b))
	}
	for len(work) > 0 {
		s := work[0]
		work, waiting[s] = work[1:], false
		succ := map[graph.NodeID]bool{}
		for _, n := range p.members[s] {
			for _, c := range g.Children(n) {
				succ[c] = true
			}
		}
		touched := map[partition.BlockID]bool{}
		for n := range succ {
			touched[p.blockOf[n]] = true
		}
		for b := range touched {
			var in, out []graph.NodeID
			for _, n := range p.members[b] {
				if succ[n] {
					in = append(in, n)
				} else {
					out = append(out, n)
				}
			}
			if len(in) == 0 || len(out) == 0 {
				continue
			}
			nb := partition.BlockID(len(p.members))
			p.members[b] = out
			p.members = append(p.members, in)
			for _, n := range in {
				p.blockOf[n] = nb
			}
			push(b)
			push(nb)
		}
	}
	return p
}
