package eval

import (
	"testing"

	"dkindex/internal/datagen"
	"dkindex/internal/graph"
)

// TestTwigValidationAllocatesNothingPerMember is the twig half of the root
// package's TestColdReadAllocatesItsAnswer (matchesEndingAt is not exported):
// on XMark at scale 1.0, validating one extent member against the data graph
// — the upward trunk walk plus the downward predicate checks — allocates
// nothing once the evaluator's pooled memo tables exist. With Go maps for
// both memos every member grew and cleared a map.
func TestTwigValidationAllocatesNothingPerMember(t *testing.T) {
	g, _, err := datagen.Graph(datagen.XMark(datagen.XMarkScale(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseTwig(g.Labels(), "item[location].name")
	if err != nil {
		t.Fatal(err)
	}
	members := g.NodesWithLabel(g.Labels().Lookup("name"))
	charged := 0
	ev := newTwigEval(g, q, func(graph.NodeID) { charged++ })
	defer ev.release()
	next, hits := 0, 0
	check := func() {
		if ev.matchesEndingAt(members.At(next % members.Len())) {
			hits++
		}
		next++
	}
	check()
	if allocs := testing.AllocsPerRun(members.Len(), check); allocs != 0 {
		t.Errorf("matchesEndingAt allocates %.2f times per member, want 0", allocs)
	}
	if hits == 0 || charged == 0 {
		t.Fatalf("validation matched %d members and charged %d nodes", hits, charged)
	}
}
