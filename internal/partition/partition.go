// Package partition implements partition refinement over node-labeled
// directed graphs. It is the algorithmic core of every structural summary in
// this repository: the 1-index is the coarsest stable refinement (full
// backward bisimulation), the A(k)-index is the k-step refinement, and the
// D(k)-index refines each block only as far as its local similarity
// requirement demands.
//
// Bisimilarity here is *backward*: two nodes are k-bisimilar iff they share a
// label and, inductively, the sets of (k-1)-bisimulation classes of their
// parents coincide (paper Definition 2). Equivalently, in Paige–Tarjan
// terms, a block B is stable with respect to a splitter block S when
// B ⊆ Succ(S) or B ∩ Succ(S) = ∅, where Succ(S) is the set of children of S.
package partition

import (
	"fmt"

	"dkindex/internal/graph"
)

// Labeled is the view of a graph that refinement needs. Both the data graph
// (*graph.Graph) and index graphs satisfy it, which is what lets the
// D(k)-index treat an existing index graph as a data graph during subgraph
// addition and demotion (paper Theorem 2).
type Labeled interface {
	NumNodes() int
	Label(n graph.NodeID) graph.LabelID
	Parents(n graph.NodeID) []graph.NodeID
}

// BlockID identifies an equivalence class within a Partition. Block ids are
// dense indices. Unlike node ids they are not stable across refinement
// rounds; Origins tracks lineage.
type BlockID int32

// InvalidBlock is the sentinel for "no block".
const InvalidBlock BlockID = -1

// Partition groups the nodes of a graph into disjoint blocks (equivalence
// classes). Every node belongs to exactly one block.
type Partition struct {
	blockOf []BlockID
	members [][]graph.NodeID
	// flat is the one backing array ResetByLabel, Refiner.Round and Clone
	// carve all member lists out of. SplitBlock moves the lists it rewrites
	// off it; that only makes part of it unused.
	flat []graph.NodeID
}

// NewByLabel returns the label-split partition of g: one block per label in
// use, in label-id order. This is the 0-bisimulation partition (A(0)).
func NewByLabel(g Labeled) *Partition {
	p := new(Partition)
	p.ResetByLabel(g)
	return p
}

// ResetByLabel makes p the label-split partition of g, as NewByLabel would,
// reusing p's storage where it is large enough: a caller that refines one
// small graph after another keeps one Partition (and one Refiner, see
// Refiner.Reset) for all of them. Member lists handed out before are invalid.
func (p *Partition) ResetByLabel(g Labeled) {
	n := g.NumNodes()
	p.blockOf = grow(p.blockOf, n)
	p.flat = grow(p.flat, n)
	// One pass in node order numbers the blocks by first occurrence of each
	// label and counts them; the members lists are then a counting sort.
	var blockOfLabel []BlockID // label ids are dense table indices
	var counts []int32
	for i := 0; i < n; i++ {
		l := int(g.Label(graph.NodeID(i)))
		for l >= len(blockOfLabel) {
			blockOfLabel = append(blockOfLabel, InvalidBlock)
		}
		b := blockOfLabel[l]
		if b == InvalidBlock {
			b = BlockID(len(counts))
			blockOfLabel[l] = b
			counts = append(counts, 0)
		}
		p.blockOf[i] = b
		counts[b]++
	}
	p.members = grow(p.members, len(counts))
	pos := int32(0)
	for b, c := range counts {
		p.members[b] = p.flat[pos : pos : pos+c]
		pos += c
	}
	for i, b := range p.blockOf {
		p.members[b] = append(p.members[b], graph.NodeID(i))
	}
}

// NumBlocks returns the number of blocks.
func (p *Partition) NumBlocks() int { return len(p.members) }

// NumNodes returns the number of nodes partitioned.
func (p *Partition) NumNodes() int { return len(p.blockOf) }

// BlockOf returns the block containing node n.
func (p *Partition) BlockOf(n graph.NodeID) BlockID { return p.blockOf[n] }

// Members returns the nodes of block b in ascending order. The slice is
// owned by the partition and must not be mutated.
func (p *Partition) Members(b BlockID) []graph.NodeID { return p.members[b] }

// Clone returns an independent copy. All member slices are carved out of one
// flat backing array (their total length is exactly the node count), so a
// clone costs three allocations however many blocks there are; slices are
// capacity-clipped so an append to one can never bleed into its neighbor.
func (p *Partition) Clone() *Partition {
	c := &Partition{
		blockOf: append([]BlockID(nil), p.blockOf...),
		members: make([][]graph.NodeID, len(p.members)),
	}
	c.flat = make([]graph.NodeID, len(p.blockOf))
	pos := 0
	for i, m := range p.members {
		end := pos + len(m)
		copy(c.flat[pos:end], m)
		c.members[i] = c.flat[pos:end:end]
		pos = end
	}
	return c
}

// Validate checks internal consistency; for tests.
func (p *Partition) Validate() error {
	seen := make(map[graph.NodeID]BlockID)
	for b := range p.members {
		if len(p.members[b]) == 0 {
			return fmt.Errorf("partition: empty block %d", b)
		}
		for _, n := range p.members[b] {
			if prev, dup := seen[n]; dup {
				return fmt.Errorf("partition: node %d in blocks %d and %d", n, prev, b)
			}
			seen[n] = BlockID(b)
			if p.blockOf[n] != BlockID(b) {
				return fmt.Errorf("partition: node %d blockOf=%d but listed in %d", n, p.blockOf[n], b)
			}
		}
	}
	if len(seen) != len(p.blockOf) {
		return fmt.Errorf("partition: members cover %d nodes, want %d", len(seen), len(p.blockOf))
	}
	return nil
}

// RefineResult describes one refinement round.
type RefineResult struct {
	// Origin maps each new block id to the block it descended from in the
	// pre-round partition. Metadata (local similarity requirements, etc.)
	// is carried across rounds through this mapping. After Refiner.Round it
	// is the refiner's scratch: read it before that refiner's next round.
	Origin []BlockID
	// Changed reports whether any block split.
	Changed bool
}

// RefineRound advances the partition by one bisimulation level: every node in
// a selected block is regrouped by the pair (its current block, the set of
// current blocks of its parents); nodes in unselected blocks keep their
// grouping. Passing a nil selector selects every block.
//
// One round applied to the (k-1)-bisimulation partition yields the
// k-bisimulation partition: this is exactly the "split the copy until stable
// with respect to the previous classes" step of the A(k) and D(k)
// construction algorithms, implemented by signatures instead of successive
// pairwise splits (the resulting partition is identical, because stability
// against every previous block is equivalent to grouping by the full set of
// parent blocks).
//
// RefineRound snapshots g's adjacency on every call; jobs that run many
// rounds against fixed adjacency should create a Refiner once and call
// Round, which amortizes the snapshot and reuses all round scratch.
func (p *Partition) RefineRound(g Labeled, selected func(BlockID) bool) RefineResult {
	return NewRefiner(g).Round(p, selected)
}

// RefineRoundForward is RefineRound with the edge direction flipped: nodes
// regroup by the blocks of their *children*. Alternating backward and
// forward rounds to a joint fixpoint yields the F&B partition (forward &
// backward bisimulation), the equivalence needed to answer branching path
// queries on the index alone (Kaushik et al., SIGMOD 2002).
func (p *Partition) RefineRoundForward(g ChildrenAccess, selected func(BlockID) bool) RefineResult {
	return NewRefinerForward(g).Round(p, selected)
}

// SplitBlock splits block b into the sub-block of members satisfying inSet
// and the sub-block of members that do not. If both are non-empty, the
// "out" part keeps id b, the "in" part receives a fresh id which is
// returned with split=true. If the block is not actually split (all in or
// all out), it is left untouched and split=false.
//
// This is the primitive used by the promoting process (Algorithm 6:
// split extent(V) into V ∩ Succ(W) and V − Succ(W)) and by the A(k)
// propagate-style update baseline.
func (p *Partition) SplitBlock(b BlockID, inSet func(graph.NodeID) bool) (in BlockID, split bool) {
	mem := p.members[b]
	var ins, outs []graph.NodeID
	for _, n := range mem {
		if inSet(n) {
			ins = append(ins, n)
		} else {
			outs = append(outs, n)
		}
	}
	if len(ins) == 0 || len(outs) == 0 {
		return InvalidBlock, false
	}
	nb := BlockID(len(p.members))
	p.members[b] = outs
	p.members = append(p.members, ins)
	for _, n := range ins {
		p.blockOf[n] = nb
	}
	return nb, true
}

// MoveNodeToNewBlock splits the single node n out of its block into a fresh
// singleton block and returns the new block id. If n is already alone in its
// block, no change is made and its current block is returned.
func (p *Partition) MoveNodeToNewBlock(n graph.NodeID) BlockID {
	b := p.blockOf[n]
	if len(p.members[b]) == 1 {
		return b
	}
	nb, split := p.SplitBlock(b, func(m graph.NodeID) bool { return m == n })
	if !split {
		panic("partition: singleton split failed on multi-member block")
	}
	return nb
}
