package partition_test

import (
	"testing"
	"testing/quick"

	"dkindex/internal/graph"
	"dkindex/internal/oracle"
	"dkindex/internal/partition"
)

// genSpec is a compact, generatable description of a random labeled graph;
// testing/quick produces values of it and property tests expand them.
type genSpec struct {
	Seed   int64
	Nodes  uint8
	Labels uint8
	Extra  uint8
}

func (s genSpec) build() *graph.Graph {
	nodes := int(s.Nodes%120) + 2
	labels := int(s.Labels%5) + 1
	extra := int(s.Extra % 60)
	return randomGraph(s.Seed, nodes, labels, extra)
}

// Property: refinement rounds only ever split blocks — every new block is a
// subset of its origin block.
func TestQuickRefinementOnlySplits(t *testing.T) {
	f := func(s genSpec, rounds uint8) bool {
		g := s.build()
		p := partition.NewByLabel(g)
		for r := 0; r < int(rounds%4)+1; r++ {
			prev := make([]partition.BlockID, g.NumNodes())
			for n := range prev {
				prev[n] = p.BlockOf(graph.NodeID(n))
			}
			res := partition.NewRefiner(g).Round(p, nil)
			for n := 0; n < g.NumNodes(); n++ {
				nb := p.BlockOf(graph.NodeID(n))
				if res.Origin[nb] != prev[n] {
					return false
				}
			}
			if p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the full bisimulation partition is stable — no further round
// changes it — and is the same no matter how many extra rounds run.
func TestQuickBisimulationIsFixpoint(t *testing.T) {
	f := func(s genSpec) bool {
		g := s.build()
		p, _ := partition.Bisimulation(g)
		before := p.NumBlocks()
		res := partition.NewRefiner(g).Round(p, nil)
		return !res.Changed && p.NumBlocks() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: k-bisimilar nodes have identical label-path sets up to length k
// (A(k) property 1). Verified by sampling backward paths from each node.
func TestQuickKBisimilarSamePathSets(t *testing.T) {
	f := func(s genSpec, kk uint8) bool {
		g := s.build()
		k := int(kk%3) + 1
		p, _ := partition.KBisimulation(g, k)
		// For every node, enumerate all label paths of length exactly k
		// (bounded graphs keep this small).
		paths := make([]map[string]bool, g.NumNodes())
		var walk func(n graph.NodeID, left int, acc []byte) []string
		walk = func(n graph.NodeID, left int, acc []byte) []string {
			acc = append(acc, byte(g.Label(n)))
			if left == 0 {
				return []string{string(acc)}
			}
			var out []string
			for _, par := range g.Parents(n) {
				out = append(out, walk(par, left-1, acc)...)
			}
			return out
		}
		for n := 0; n < g.NumNodes(); n++ {
			set := make(map[string]bool)
			for _, s := range walk(graph.NodeID(n), k, nil) {
				set[s] = true
			}
			paths[n] = set
		}
		for b := 0; b < p.NumBlocks(); b++ {
			mem := p.Members(partition.BlockID(b))
			ref := paths[mem[0]]
			for _, m := range mem[1:] {
				got := paths[m]
				if len(got) != len(ref) {
					return false
				}
				for s := range ref {
					if !got[s] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the splitter-based and signature-based full bisimulations agree
// on arbitrary generated graphs.
func TestQuickSplitterAgreesWithFixpoint(t *testing.T) {
	f := func(s genSpec) bool {
		g := s.build()
		a, _ := partition.Bisimulation(g)
		b := oracle.Splitter(g)
		return sameGrouping(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the F&B partition is stable in both directions and refines the
// backward bisimulation.
func TestQuickFBBisimulationStableBothWays(t *testing.T) {
	f := func(s genSpec) bool {
		g := s.build()
		fb, _ := partition.FBBisimulation(g)
		if fb.Validate() != nil {
			return false
		}
		// Neither direction refines it further.
		c := fb.Clone()
		if partition.NewRefiner(g).Round(c, nil).Changed {
			return false
		}
		if partition.NewRefinerForward(g).Round(c, nil).Changed {
			return false
		}
		// It refines the backward bisimulation: members of an F&B block
		// never straddle two backward blocks.
		back, _ := partition.Bisimulation(g)
		for b := 0; b < fb.NumBlocks(); b++ {
			mem := fb.Members(partition.BlockID(b))
			ref := back.BlockOf(mem[0])
			for _, m := range mem[1:] {
				if back.BlockOf(m) != ref {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
