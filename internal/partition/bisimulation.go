package partition

import "dkindex/internal/graph"

// KBisimulation returns the k-bisimulation partition of g (the classes of
// the ≈^k relation, Definition 2), together with the number of rounds that
// actually changed anything. If the partition stabilizes after r < k rounds
// it is also the full bisimulation partition, and rounds == r.
func KBisimulation(g Labeled, k int) (p *Partition, rounds int) {
	p = NewByLabel(g)
	if k <= 0 {
		return p, 0
	}
	r := NewRefiner(g)
	for i := 0; i < k; i++ {
		if !r.Round(p, nil).Changed {
			return p, i
		}
		rounds = i + 1
	}
	return p, rounds
}

// Bisimulation returns the full (backward) bisimulation partition of g — the
// equivalence classes of the 1-index — by iterating refinement rounds to a
// fixpoint. The number of rounds needed (the bisimulation depth of the
// graph) is returned alongside.
func Bisimulation(g Labeled) (p *Partition, depth int) {
	p = NewByLabel(g)
	r := NewRefiner(g)
	for {
		if !r.Round(p, nil).Changed {
			return p, depth
		}
		depth++
	}
}

// ChildrenAccess extends Labeled with forward adjacency, which forward
// refinement rounds need.
type ChildrenAccess interface {
	Labeled
	Children(n graph.NodeID) []graph.NodeID
}

// FBBisimulation computes the forward & backward bisimulation partition of
// g: the coarsest partition stable under both parents (incoming label paths)
// and children (outgoing label structure). It alternates backward and
// forward refinement rounds until neither changes. The F&B partition is the
// smallest index sound for branching path queries; it is usually much larger
// than the 1-index.
func FBBisimulation(g ChildrenAccess) (p *Partition, rounds int) {
	p = NewByLabel(g)
	rb := NewRefiner(g)        // backward rounds: parent adjacency
	rf := NewRefinerForward(g) // forward rounds: child adjacency
	for {
		back := rb.Round(p, nil).Changed
		fwd := rf.Round(p, nil).Changed
		if !back && !fwd {
			return p, rounds
		}
		rounds++
	}
}
