package partition

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"dkindex/internal/graph"
)

// Property: the CSR + counting-sort refiner is block-identical to the
// preserved reference implementation — same membership and same canonical
// numbering — on random graphs, across multiple rounds, with and without
// selectors.
func TestQuickRefinerMatchesReference(t *testing.T) {
	f := func(s genSpec, rounds uint8, selEvery uint8) bool {
		g := s.build()
		fast := NewByLabel(g)
		ref := NewByLabel(g)
		r := NewRefiner(g)
		for round := 0; round < int(rounds%4)+1; round++ {
			var sel func(BlockID) bool
			if m := int(selEvery % 4); m > 1 {
				// Select a deterministic subset of blocks so the unselected
				// carry-over path is exercised too.
				sel = func(b BlockID) bool { return int(b)%m != 0 }
			}
			fres := r.Round(fast, sel)
			rres := ref.ReferenceRefineRound(g, sel)
			if fres.Changed != rres.Changed || len(fres.Origin) != len(rres.Origin) {
				return false
			}
			for i := range fres.Origin {
				if fres.Origin[i] != rres.Origin[i] {
					return false
				}
			}
			if !Identical(fast, ref) || fast.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The fixpoint drivers must agree with their reference counterparts
// wholesale (they reuse one Refiner across rounds, so scratch recycling
// bugs would surface here rather than in single-round tests).
func TestDriversMatchReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, 90, 4, 40)
		fp, fr := Bisimulation(g)
		rp, rr := ReferenceBisimulation(g)
		if fr != rr || !Identical(fp, rp) {
			t.Fatalf("seed %d: Bisimulation diverges from reference (rounds %d vs %d)", seed, fr, rr)
		}
		for k := 0; k <= 3; k++ {
			fp, fr = KBisimulation(g, k)
			rp, rr = ReferenceKBisimulation(g, k)
			if fr != rr || !Identical(fp, rp) {
				t.Fatalf("seed %d k=%d: KBisimulation diverges from reference", seed, k)
			}
		}
		fp, fr = FBBisimulation(g)
		rp, rr = ReferenceFBBisimulation(g)
		if fr != rr || !Identical(fp, rp) {
			t.Fatalf("seed %d: FBBisimulation diverges from reference", seed)
		}
	}
}

// The refiner's result must not depend on the fan-out width: GOMAXPROCS=1
// forces every phase inline, and the partitions must still be identical to
// the parallel run's.
func TestRefinerParallelMatchesSerial(t *testing.T) {
	g := randomGraph(7, 110, 4, 55)

	run := func() *Partition {
		p := NewByLabel(g)
		r := NewRefiner(g)
		for i := 0; i < 3; i++ {
			r.Round(p, nil)
		}
		return p
	}
	parallel := run()
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	if !Identical(parallel, serial) {
		t.Fatal("refiner result depends on GOMAXPROCS")
	}
}

// Clone must produce fully independent deep copies (its members now share
// one flat backing array; splits on the clone must not corrupt the
// original).
func TestCloneIndependentBacking(t *testing.T) {
	g := randomGraph(3, 60, 3, 30)
	p, _ := KBisimulation(g, 2)
	c := p.Clone()
	if !Identical(p, c) {
		t.Fatal("clone differs from original")
	}
	// Split every splittable block of the clone; the original must be
	// untouched and both must stay internally consistent.
	snapshot := p.Clone()
	for b := c.NumBlocks() - 1; b >= 0; b-- {
		mem := c.Members(BlockID(b))
		if len(mem) > 1 {
			pivot := mem[0]
			c.SplitBlock(BlockID(b), func(n graph.NodeID) bool { return n == pivot })
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid after splits: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("original invalid after clone splits: %v", err)
	}
	if !Identical(p, snapshot) {
		t.Fatal("splitting the clone mutated the original")
	}
}

// A Partition and a Refiner recycled from job to job (ResetByLabel, Reset) —
// over graphs that grow, shrink and grow again, with splits between rounds —
// must give what a fresh pair gives and make no new arrays once theirs have
// reached the largest graph's size.
func TestRecycledRefinerMatchesFresh(t *testing.T) {
	var p Partition
	var r Refiner
	sizes := []int{120, 9, 300, 40, 300, 2}
	for job, nodes := range sizes {
		g := randomGraph(int64(job), nodes, 1+job%4, nodes/3)
		p.ResetByLabel(g)
		fresh := NewByLabel(g)
		if !Identical(&p, fresh) || p.Validate() != nil {
			t.Fatalf("job %d: recycled label split differs from NewByLabel", job)
		}
		r.Reset(g)
		fr := NewRefiner(g)
		for round := 0; round < 4; round++ {
			got, want := r.Round(&p, nil), fr.Round(fresh, nil)
			if got.Changed != want.Changed || !slices.Equal(got.Origin, want.Origin) {
				t.Fatalf("job %d round %d: results differ", job, round)
			}
			if !Identical(&p, fresh) || p.Validate() != nil {
				t.Fatalf("job %d round %d: recycled refinement differs from a fresh one", job, round)
			}
			if round == 1 { // member lists moved off the flat backing
				p.MoveNodeToNewBlock(graph.NodeID(nodes - 1))
				fresh.MoveNodeToNewBlock(graph.NodeID(nodes - 1))
			}
		}
	}
	// Once warm, a job moves the same arrays between the partition and the
	// refiner's spares and makes no new ones.
	g := randomGraph(2, 300, 3, 100)
	job := func() map[any]bool {
		p.ResetByLabel(g)
		r.Reset(g)
		for round := 0; round < 3; round++ {
			r.Round(&p, nil)
		}
		return map[any]bool{
			&p.blockOf[0]: true, &r.spareBlock[0]: true,
			&p.flat[0]: true, &r.spareFlat[0]: true,
			&p.members[0]: true, &r.spareMembers[0]: true,
			&r.origin[:1][0]: true, &r.arena[0]: true,
		}
	}
	warm := job()
	for again := 0; again < 3; again++ {
		for array := range job() {
			if !warm[array] {
				t.Fatal("a recycled refinement job allocated a partition or round array anew")
			}
		}
	}
}
