package dkindex

import (
	"strings"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/workload"
)

const moviesXML = `<?xml version="1.0"?>
<movieDB>
  <director id="d1">
    <name/>
    <movie id="m1"><title/><year/></movie>
  </director>
  <director id="d2">
    <name/>
    <movie id="m2"><title/><year/></movie>
  </director>
  <actor id="a1" movieref="m1 m2"><name/></actor>
  <movie id="m3"><title/><actor id="a2"><name/></actor></movie>
</movieDB>
`

func open(t *testing.T) *Index {
	t.Helper()
	idx, err := LoadXMLString(moviesXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestLoadAndQuery(t *testing.T) {
	idx := open(t)
	res, stats, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("director.movie.title = %v, want 2 titles", res)
	}
	for _, n := range res {
		if idx.LabelName(n) != "title" {
			t.Errorf("result %d has label %s", n, idx.LabelName(n))
		}
	}
	if stats.IndexNodesVisited == 0 {
		t.Error("no cost reported")
	}
}

func TestQueryErrors(t *testing.T) {
	idx := open(t)
	if _, _, err := query(idx, KindPath, ""); err == nil {
		t.Error("empty query accepted")
	}
	if _, _, err := query(idx, KindRPE, "(a"); err == nil {
		t.Error("malformed expression accepted")
	}
	if _, _, err := query(idx, "nope", "a"); err == nil {
		t.Error("unknown kind accepted")
	}
	// An empty kind means path.
	if res, _, err := query(idx, "", "director.movie.title"); err != nil || len(res) != 2 {
		t.Errorf("default kind: %v, %d results", err, len(res))
	}
}

func TestQueryRPE(t *testing.T) {
	idx := open(t)
	res, _, err := query(idx, KindRPE, "movieDB//name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Errorf("movieDB//name = %v, want 4 names", res)
	}
	res2, _, err := query(idx, KindRPE, "actor.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 2 { // a1 -> m1, m2 via reference edges
		t.Errorf("actor.movie.title = %v, want 2", res2)
	}
}

func TestSetRequirementsEliminatesValidation(t *testing.T) {
	idx := open(t)
	_, before, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if before.Validations == 0 {
		t.Fatal("label-split index should validate a length-2 query")
	}
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	resAfter, after, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if after.Validations != 0 {
		t.Errorf("tuned index still validated %d times", after.Validations)
	}
	if len(resAfter) != 2 {
		t.Errorf("tuned result = %v", resAfter)
	}
}

func TestTune(t *testing.T) {
	idx := open(t)
	cfg := workload.DefaultConfig(1)
	cfg.N = 20
	w, err := workload.Generate(idx.Graph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Fatal("empty workload generated")
	}
	if err := idx.TuneWith(w); err != nil {
		t.Fatal(err)
	}
	// Every tuned query runs without validation.
	for _, q := range w.Queries {
		_, stats, err := query(idx, KindPath, q.Format(idx.Graph().Labels()))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Validations != 0 {
			t.Errorf("tuned query %s validated", q.Format(idx.Graph().Labels()))
		}
	}
}

func TestStats(t *testing.T) {
	idx := open(t)
	s := idx.Stats()
	if s.DataNodes == 0 || s.IndexNodes == 0 || s.DataEdges == 0 {
		t.Errorf("stats empty: %+v", s)
	}
	if s.IndexNodes > s.DataNodes {
		t.Error("index larger than data")
	}
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 3}})
	if idx.Stats().MaxK < 3 {
		t.Error("MaxK not reflecting requirements")
	}
}

func TestAddEdge(t *testing.T) {
	idx := open(t)
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	// Find an actor and a movie to connect.
	actors, _, err := query(idx, KindPath, "actor")
	if err != nil {
		t.Fatal(err)
	}
	movies, _, err := query(idx, KindPath, "movie")
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := idx.Stats().IndexNodes
	if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: actors[len(actors)-1], To: movies[0]}); err != nil {
		t.Fatal(err)
	}
	if idx.Stats().IndexNodes != sizeBefore {
		t.Error("AddEdge changed index size")
	}
	// Queries remain exact.
	res, _, err := query(idx, KindPath, "actor.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("new edge not reachable")
	}
	if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: -1, To: 0}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: 0, To: NodeID(idx.Stats().DataNodes)}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestAddDocument(t *testing.T) {
	idx := open(t)
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	before := idx.Stats().DataNodes
	ack, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte(`<movieDB><director><name/><movie><title/></movie></director></movieDB>`)})
	if err != nil {
		t.Fatal(err)
	}
	mapping := ack.Mapping
	if len(mapping) == 0 {
		t.Fatal("empty mapping")
	}
	if idx.Stats().DataNodes <= before {
		t.Error("document not grafted")
	}
	res, _, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("after graft: %d results, want 3", len(res))
	}
	if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte("<broken")}); err == nil {
		t.Error("malformed document accepted")
	}
}

func TestPromoteAndDemote(t *testing.T) {
	idx := open(t)
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 2}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Validations != 0 {
		t.Error("promotion did not eliminate validation")
	}
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "nosuch", K: 2}); err == nil {
		t.Error("unknown label accepted")
	}
	grown := idx.Stats().IndexNodes
	mustApply(t, idx, Mutation{Op: MutDemote})
	if idx.Stats().IndexNodes > grown {
		t.Error("demotion grew the index")
	}
	// Still correct, just validating again.
	res, _, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("after demote: %v", res)
	}
}

func TestFromGraph(t *testing.T) {
	g := graph.FigureOneMovies()
	idx := FromGraph(g, map[string]int{"title": 2})
	res, stats, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{15, 16, 18}
	if len(res) != 3 || res[0] != want[0] || res[1] != want[1] || res[2] != want[2] {
		t.Errorf("result = %v, want %v", res, want)
	}
	if stats.Validations != 0 {
		t.Error("tuned FromGraph index validated")
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	idx := open(t)
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	dir := t.TempDir()
	path := dir + "/movies.dkx"
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantStats, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gotStats, err := query(got, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRes) != len(gotRes) {
		t.Fatalf("results differ after reopen: %v vs %v", wantRes, gotRes)
	}
	for i := range wantRes {
		if wantRes[i] != gotRes[i] {
			t.Fatalf("results differ after reopen: %v vs %v", wantRes, gotRes)
		}
	}
	if wantStats != gotStats {
		t.Errorf("costs differ after reopen: %+v vs %+v", wantStats, gotStats)
	}
	// The reopened index keeps updating normally.
	if _, err := got.Apply(Mutation{Op: MutAddDocument, Doc: []byte("<movieDB><movie><title/></movie></movieDB>")}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(strings.NewReader("not an index")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := OpenFile("/nonexistent/path.dkx"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestQueryTwig(t *testing.T) {
	idx := open(t)
	// Titles of movies that have an actor child: only m3 qualifies.
	res, stats, err := query(idx, KindTwig, "movie[actor].title")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("movie[actor].title = %v, want 1 result", res)
	}
	if stats.Validations == 0 {
		t.Error("branching query should validate on a backward index")
	}
	if _, _, err := query(idx, KindTwig, "movie[actor"); err == nil {
		t.Error("malformed twig accepted")
	}
}

func TestWatchLoadAndOptimize(t *testing.T) {
	idx := open(t)
	if _, err := idx.Apply(Mutation{Op: MutOptimize}); err == nil {
		t.Error("Optimize without WatchLoad accepted")
	}
	idx.WatchLoad()
	for i := 0; i < 5; i++ {
		if _, _, err := query(idx, KindPath, "director.movie.title"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := query(idx, KindPath, "actor.name"); err != nil {
		t.Fatal(err)
	}
	if idx.ObservedQueries() != 2 {
		t.Fatalf("observed %d distinct queries, want 2", idx.ObservedQueries())
	}
	ack, err := idx.Apply(Mutation{Op: MutOptimize})
	if err != nil {
		t.Fatal(err)
	}
	reqs := ack.Mined
	if len(reqs) == 0 {
		t.Fatal("optimizer chose nothing")
	}
	if idx.ObservedQueries() != 0 {
		t.Error("recorder not reset after Optimize")
	}
	// The hot query now runs without validation.
	_, stats, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Validations != 0 {
		t.Errorf("optimized index still validates the hot query (reqs=%v)", reqs)
	}
}

func TestRemoveEdgeFacade(t *testing.T) {
	idx := open(t)
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	before, _, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	// Delete one director->movie containment edge; its title must vanish.
	movies, _, err := query(idx, KindPath, "director.movie")
	if err != nil {
		t.Fatal(err)
	}
	directors, _, err := query(idx, KindPath, "director")
	if err != nil {
		t.Fatal(err)
	}
	removedOne := false
	for _, d := range directors {
		for _, m := range movies {
			if idx.Graph().HasEdge(d, m) {
				if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: d, To: m}); err != nil {
					t.Fatal(err)
				}
				removedOne = true
				break
			}
		}
		if removedOne {
			break
		}
	}
	if !removedOne {
		t.Fatal("no director->movie edge found")
	}
	after, _, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)-1 {
		t.Errorf("results after removal: %d, want %d", len(after), len(before)-1)
	}
	if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: -1, To: 0}); err == nil {
		t.Error("out-of-range removal accepted")
	}
}

func TestExplain(t *testing.T) {
	idx := open(t)
	e, err := idx.Explain("director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if e.Results != 2 {
		t.Errorf("Results = %d, want 2", e.Results)
	}
	if len(e.Matched) == 0 {
		t.Fatal("no matched nodes reported")
	}
	anyValidated := false
	for _, m := range e.Matched {
		if m.Label != "title" {
			t.Errorf("matched label %s, want title", m.Label)
		}
		if m.Validated {
			anyValidated = true
			if m.Kept > m.ExtentSize {
				t.Error("kept more than extent size")
			}
		} else if m.Kept != m.ExtentSize {
			t.Error("sound node did not keep whole extent")
		}
	}
	if !anyValidated {
		t.Error("label-split index should validate this query")
	}
	if !strings.Contains(e.String(), "validated") {
		t.Error("String() missing validation marker")
	}

	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	e, err = idx.Explain("director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range e.Matched {
		if m.Validated {
			t.Error("tuned index still validates in Explain")
		}
	}
	if _, err := idx.Explain(""); err == nil {
		t.Error("empty query accepted")
	}
}

// TestExplainAgreesWithRun: Explain reports the answer size and the cost Run
// does, for every path of the tuned XMark 0.25 load, on the tuned index and
// on a label-split one (no requirements), where every path of two or more
// labels is validated.
func TestExplainAgreesWithRun(t *testing.T) {
	ds, tuned := tunedXMark(t, 0.25)
	for name, idx := range map[string]*Index{"tuned": tuned, "label-split": FromGraph(ds.G, nil)} {
		idx.SetResultCache(0)
		validations := 0
		for _, q := range ds.W.Queries {
			text := q.Format(ds.G.Labels())
			e, err := idx.Explain(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := idx.Run(Request{Kind: KindPath, Text: text, Limit: -1})
			if err != nil {
				t.Fatal(err)
			}
			if e.Results != res.Total || e.Stats != res.Stats {
				t.Errorf("%s %s: Explain %d results %+v, Run %d results %+v", name, text, e.Results, e.Stats, res.Total, res.Stats)
			}
			validations += res.Stats.Validations
		}
		if name == "label-split" && validations == 0 {
			t.Errorf("%s: no path validated", name)
		}
	}
}

func TestCompactAfterSubtreeDeletion(t *testing.T) {
	idx := open(t)
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	before, _, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	// Delete director d1's subtree: remove the containment edge, compact.
	dirs, _, err := query(idx, KindPath, "movieDB.director")
	if err != nil {
		t.Fatal(err)
	}
	roots, _, err := query(idx, KindPath, "movieDB")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: roots[0], To: dirs[0]}); err != nil {
		t.Fatal(err)
	}
	nodesBefore := idx.Stats().DataNodes
	ack, err := idx.Apply(Mutation{Op: MutCompact})
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Mapping) != nodesBefore {
		t.Fatalf("mapping covers %d nodes, want %d", len(ack.Mapping), nodesBefore)
	}
	dropped := 0
	for _, n := range ack.Mapping {
		if n == -1 {
			dropped++
		}
	}
	if dropped == 0 || idx.Stats().DataNodes != nodesBefore-dropped {
		t.Fatalf("dropped %d of %d nodes, %d left", dropped, nodesBefore, idx.Stats().DataNodes)
	}
	after, _, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)-1 {
		t.Errorf("titles after deletion = %d, want %d", len(after), len(before)-1)
	}
	// The rebuilt index keeps its requirements: no validation.
	_, stats, err := query(idx, KindPath, "director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Validations != 0 {
		t.Error("requirements lost across compaction")
	}
	if err := idx.IG().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAudit(t *testing.T) {
	idx := open(t)
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})
	if err := idx.Audit(3); err != nil {
		t.Fatalf("healthy index failed audit: %v", err)
	}
	// Corrupt a claim directly and catch it.
	ig := idx.IG()
	var titleNode NodeID = -1
	for n := 0; n < ig.NumNodes(); n++ {
		if idx.Graph().Labels().Name(ig.Label(NodeID(n))) == "movie" && ig.ExtentSize(NodeID(n)) > 1 {
			titleNode = NodeID(n)
			break
		}
	}
	if titleNode == -1 {
		t.Skip("no multi-member movie class in this fixture")
	}
	ig.SetK(titleNode, 3) // unearned claim
	if err := idx.Audit(3); err == nil {
		t.Error("audit missed an unearned similarity claim")
	}
}
