package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dkindex/internal/codec"
	"dkindex/internal/core"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
)

// script reads small numbers off a byte string: the source of every choice a
// graft scenario makes, so the same scenario runs from a seeded generator
// (TestGraftMatchesRebuild) and from the fuzzer (FuzzGraftAgainstRebuild).
type script struct {
	data []byte
	pos  int
}

func (s *script) done() bool { return s.pos >= len(s.data) }

// next returns a number in [0, n) from the next two bytes (0 once the script
// has run out, or when n leaves no choice).
func (s *script) next(n int) int {
	if n <= 1 {
		return 0
	}
	if s.pos+1 >= len(s.data) {
		s.pos = len(s.data)
		return 0
	}
	v := int(s.data[s.pos])<<8 | int(s.data[s.pos+1])
	s.pos += 2
	return v % n
}

func randomScript(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func saved(t testing.TB, dk *core.DK) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.SaveDK(&buf, dk); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scriptedGraph reads a rooted graph over labels a, b, ... off the script: a
// random tree plus reference edges, and a requirement per label.
func scriptedGraph(s *script, maxNodes int) (*graph.Graph, core.Requirements) {
	g := graph.New()
	g.AddRoot()
	nodes, labels := 2+s.next(maxNodes), 1+s.next(4)
	for n := 1; n < nodes; n++ {
		g.AddEdge(graph.NodeID(s.next(n)), g.AddNode(string(rune('a'+s.next(labels)))))
	}
	for e := s.next(nodes / 3); e > 0; e-- {
		g.AddEdge(graph.NodeID(s.next(nodes)), graph.NodeID(1+s.next(nodes-1)))
	}
	reqs := make(core.Requirements)
	for l := 1; l < g.Labels().Len(); l++ {
		reqs[graph.LabelID(l)] = s.next(4)
	}
	return g, reqs
}

// scriptedDoc reads a small document off the script: a tree over the graph's
// letter labels, now and then one the graph has never seen.
func scriptedDoc(s *script, g *graph.Graph) *graph.Graph {
	h := graph.New()
	h.AddRoot()
	for n, nodes := 1, 1+s.next(14); n < nodes; n++ {
		label := string(rune('a' + s.next(5)))
		if s.next(8) == 0 {
			label = fmt.Sprintf("fresh%d", g.NumNodes())
		}
		h.AddEdge(graph.NodeID(s.next(n)), h.AddNode(label))
	}
	return h
}

// fragmentDoc cuts a document shaped like the data out of g itself: the
// label path from the root down to a node the script picks, and up to a dozen
// nodes of the subtree under it, with the edges g has between them.
func fragmentDoc(s *script, g *graph.Graph) *graph.Graph {
	top := graph.NodeID(1 + s.next(g.NumNodes()-1))
	var path []graph.NodeID
	for n := top; n != g.Root() && len(path) < 12; n = g.Parents(n)[0] {
		if len(g.Parents(n)) == 0 {
			break
		}
		path = append(path, n)
	}
	h := graph.New()
	at := h.AddRoot()
	copyOf := make(map[graph.NodeID]graph.NodeID)
	for i := len(path) - 1; i >= 0; i-- {
		c := h.AddNode(g.LabelName(path[i]))
		h.AddEdge(at, c)
		at, copyOf[path[i]] = c, c
	}
	taken := []graph.NodeID{top}
	for i := 0; i < len(taken) && len(taken) < 12; i++ {
		for _, c := range g.Children(taken[i]) {
			if _, dup := copyOf[c]; !dup && len(taken) < 12 {
				copyOf[c] = h.AddNode(g.LabelName(c))
				taken = append(taken, c)
			}
		}
	}
	for _, n := range taken {
		for _, c := range g.Children(n) {
			if cc, ok := copyOf[c]; ok && cc != h.Root() {
				h.AddEdge(copyOf[n], cc)
			}
		}
	}
	return h
}

// graftTally counts which way Algorithm 3 went.
type graftTally struct{ grafted, rebuilt int }

// runGraftScript interleaves edge additions and removals, label promotions
// and document additions on dk as the script dictates. Every document is
// added twice — by AddSubgraph on dk and by the whole-index rebuild on a clone
// taken just before — and the two must be one index: same mapping, same
// codec bytes (node numbering, extents, similarities, edges), structurally
// valid, Definition 3 intact and every similarity claim up to 3 true of the
// data.
func runGraftScript(t testing.TB, dk *core.DK, s *script, doc func(*script, *graph.Graph) *graph.Graph) graftTally {
	t.Helper()
	var tally graftTally
	for step := 0; !s.done(); step++ {
		g := dk.IG.Data()
		u := graph.NodeID(s.next(g.NumNodes()))
		v := graph.NodeID(1 + s.next(g.NumNodes()-1))
		switch op := s.next(8); op {
		case 0, 1, 2:
			if u != v {
				dk.AddEdge(u, v)
			}
		case 3:
			if len(g.Children(u)) > 0 {
				dk.RemoveEdge(u, g.Children(u)[s.next(len(g.Children(u)))])
			}
		case 4:
			dk.PromoteLabel(graph.LabelID(1+s.next(g.Labels().Len()-1)), 1+s.next(3))
		default:
			h := doc(s, g)
			oracle := dk.Clone()
			want, err := oracle.AddSubgraphByRebuild(h)
			if err != nil {
				t.Fatalf("step %d: rebuild: %v", step, err)
			}
			before := dk.IG
			got, err := dk.AddSubgraph(h)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if dk.IG == before {
				tally.grafted++
			} else {
				tally.rebuilt++
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: mapping %v, rebuild says %v", step, got, want)
			}
			if !bytes.Equal(saved(t, dk), saved(t, oracle)) {
				t.Fatalf("step %d (grafted=%v): AddSubgraph and the whole-index rebuild disagree: %d vs %d index nodes",
					step, dk.IG == before, dk.Size(), oracle.Size())
			}
			if err := dk.IG.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := core.CheckInvariant(dk.IG); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := core.Audit(dk.IG, 3); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	return tally
}

// TestGraftMatchesRebuild holds Algorithm 3's two materialisations equal on
// random graphs and on all three experiment datasets, under random
// interleavings of every update that changes what the next refinement sees.
// Both must be reached: the graft is the common case, the rebuild what the
// first document after a run of edge updates takes.
func TestGraftMatchesRebuild(t *testing.T) {
	var total graftTally
	add := func(name string, tally graftTally) {
		t.Logf("%s: %d documents grafted in place, %d materialised anew", name, tally.grafted, tally.rebuilt)
		total.grafted += tally.grafted
		total.rebuilt += tally.rebuilt
	}
	var random graftTally
	for seed := int64(1); seed <= 24; seed++ {
		s := &script{data: randomScript(seed, 1200)}
		g, reqs := scriptedGraph(s, 150)
		tally := runGraftScript(t, core.Build(g, reqs), s, scriptedDoc)
		random.grafted += tally.grafted
		random.rebuilt += tally.rebuilt
	}
	add("random graphs", random)
	for _, load := range []func(float64, int64) (*experiments.Dataset, error){
		experiments.XMarkDataset, experiments.NasaDataset, experiments.DblpDataset,
	} {
		ds, err := load(0.03, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := &script{data: randomScript(int64(len(ds.Name)), 480)}
		add(ds.Name, runGraftScript(t, core.Build(ds.G, ds.W.Requirements()), s, fragmentDoc))
	}
	if total.grafted == 0 || total.rebuilt == 0 {
		t.Fatalf("one branch was never taken: %d grafted, %d rebuilt", total.grafted, total.rebuilt)
	}
}

// FuzzGraftAgainstRebuild is TestGraftMatchesRebuild with the fuzzer writing
// the scenario: the bytes are a small graph with its requirements, then an
// update script whose documents are read off the same bytes.
func FuzzGraftAgainstRebuild(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed, 400))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip("long scripts only repeat short ones")
		}
		s := &script{data: data}
		g, reqs := scriptedGraph(s, 60)
		runGraftScript(t, core.Build(g, reqs), s, scriptedDoc)
	})
}
