package eval

import (
	"testing"

	"dkindex/internal/datagen"
)

// TestTwigValidationAllocatesNothingPerMember is the trunk walker's half of
// the root package's TestColdReadAllocatesItsAnswer (matchesEndingAt is not
// exported): on XMark at scale 1.0, validating one extent member against the
// data graph — the upward trunk walk, plus the downward predicate checks of
// a twig — allocates nothing once the evaluator's pooled memo tables exist,
// for a twig and for a simple path filling the evaluator's own twig. With Go
// maps for both memos every member grew and cleared a map.
func TestTwigValidationAllocatesNothingPerMember(t *testing.T) {
	g, _, err := datagen.Graph(datagen.XMark(datagen.XMarkScale(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	tw, err := ParseTwig(g.Labels(), "item[location].name")
	if err != nil {
		t.Fatal(err)
	}
	path := mustQuery(t, g, "person.name")
	members := g.NodesWithLabel(g.Labels().Lookup("name"))
	for name, ev := range map[string]*twigEval{
		"twig item[location].name": newTwigEval(g, tw),
		"path person.name":         newPathEval(g, path),
	} {
		next, hits := 0, 0
		check := func() {
			if ev.matchesEndingAt(members.At(next % members.Len())) {
				hits++
			}
			next++
		}
		check()
		if allocs := testing.AllocsPerRun(members.Len(), check); allocs != 0 {
			t.Errorf("%s: matchesEndingAt allocates %.2f times per member, want 0", name, allocs)
		}
		if hits == 0 || ev.visited == 0 {
			t.Fatalf("%s: validation matched %d members and charged %d nodes", name, hits, ev.visited)
		}
		ev.release()
	}
}
