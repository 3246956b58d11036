package dkindex

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dkindex/internal/obs"
)

func eventTypes(events []obs.Event) map[obs.EventType]int {
	out := make(map[obs.EventType]int)
	for _, e := range events {
		out[e.Type]++
	}
	return out
}

// TestObserveLifecycleEvents runs every adaptation operation on an observed
// index and checks the typed events each must emit.
func TestObserveLifecycleEvents(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)

	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(Mutation{Op: MutAddEdge, From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(Mutation{Op: MutRemoveEdge, From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	mustApply(t, idx, Mutation{Op: MutDemote, Reqs: map[string]int{"title": 0}})
	mustApply(t, idx, Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 1}})
	if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte("<movieDB><movie><title/></movie></movieDB>")}); err != nil {
		t.Fatal(err)
	}
	mustApply(t, idx, Mutation{Op: MutCompact})

	counts := eventTypes(o.Events.Recent(0))
	for _, want := range []obs.EventType{
		obs.EventPromote, obs.EventEdgeAdd, obs.EventEdgeRemove,
		obs.EventDemote, obs.EventRetune, obs.EventSubgraphAdd, obs.EventCompact,
	} {
		if counts[want] == 0 {
			t.Errorf("no %s event emitted (got %v)", want, counts)
		}
	}
	// Promoting "title" to 2 on the label-split index must split extents
	// (title nodes have structurally different ancestries in moviesXML).
	if counts[obs.EventExtentSplit] == 0 {
		t.Errorf("promotion emitted no extent_split events (got %v)", counts)
	}

	var promote obs.Event
	for _, e := range o.Events.Recent(0) {
		if e.Type == obs.EventPromote {
			promote = e
			break
		}
	}
	if promote.Label != "title" || promote.K != 2 {
		t.Errorf("promote event = %+v, want label=title k=2", promote)
	}
	if promote.NodesAfter <= promote.NodesBefore {
		t.Errorf("promote did not grow the index: %d -> %d", promote.NodesBefore, promote.NodesAfter)
	}
	if promote.Created == 0 || promote.Visited == 0 {
		t.Errorf("promote event missing work counters: %+v", promote)
	}
}

// TestSplitsObservedAfterDocumentInBatch: a member of a batch is observed
// whatever ran before it in the same batch. A promotion's extent splits used
// to go unrecorded when an add_document preceded it, because Algorithm 3 left
// a new, uninstrumented index graph behind; now it grafts in place, and
// re-instruments when it does not.
func TestSplitsObservedAfterDocumentInBatch(t *testing.T) {
	splits := func(idx *Index, ms ...Mutation) int {
		t.Helper()
		o := obs.NewObserver()
		idx.Observe(o)
		acks, err := idx.ApplyBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range acks {
			if a.Err != nil {
				t.Fatal(a.Err)
			}
		}
		return eventTypes(o.Events.Recent(0))[obs.EventExtentSplit]
	}
	promote := Mutation{Op: MutPromote, Label: "title", K: 2}
	doc := Mutation{Op: MutAddDocument, Doc: []byte("<movieDB><movie><title/></movie></movieDB>")}
	if alone, after := splits(open(t), promote), splits(open(t), doc, promote); alone == 0 || after != alone {
		t.Errorf("promote title 2 records %d extent_split events alone, %d after an add_document in its batch", alone, after)
	}

	// The same where the document's refinement merges index nodes, so that
	// the index graph the batch started on is replaced: x1 and x2 are told
	// apart at k=1 by x2's extra parent b; give x1 that parent too and the
	// next document folds the two classes into one, which promoting x to 2
	// splits again (their a's differ one level up).
	idx, err := LoadXMLString(`<r><a><x id="x1"/></a><c><a><x id="x2"/></a></c><b ref="x2"/></r>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, idx, Mutation{Op: MutPromote, Label: "x", K: 1})
	x1, b := nodeWithLabel(t, idx, "x", 0), nodeWithLabel(t, idx, "b", 0)
	mustApply(t, idx, Mutation{Op: MutAddEdge, From: b, To: x1})
	merged := idx.IG()
	n := splits(idx, Mutation{Op: MutAddDocument, Doc: []byte("<r><a><x/></a></r>")}, Mutation{Op: MutPromote, Label: "x", K: 2})
	if idx.IG().NumNodes() < merged.NumNodes()+1 {
		t.Fatalf("the scenario no longer merges and re-splits: %d -> %d index nodes", merged.NumNodes(), idx.IG().NumNodes())
	}
	if n == 0 {
		t.Error("no extent_split recorded for a promote after an add_document whose refinement merged index nodes")
	}
}

// TestObserveAutoPromoteEvent drives the auto-promoting index past its
// threshold and expects the auto_promote lifecycle event.
func TestObserveAutoPromoteEvent(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)
	idx.SetAutoPromote(1)

	// The label-split index validates this query, firing promotion at once.
	if _, stats, err := query(idx, KindPath, "director.movie.title"); err != nil {
		t.Fatal(err)
	} else if stats.Validations == 0 {
		t.Fatal("expected a validating query to trigger auto-promotion")
	}
	counts := eventTypes(o.Events.Recent(0))
	if counts[obs.EventAutoPromote] != 1 {
		t.Fatalf("auto_promote events = %d, want 1 (%v)", counts[obs.EventAutoPromote], counts)
	}
	// Repeating the query now answers soundly from the summary.
	if _, stats, err := query(idx, KindPath, "director.movie.title"); err != nil {
		t.Fatal(err)
	} else if stats.Validations != 0 {
		t.Error("query still validates after auto-promotion")
	}
}

// TestObserveReloadEvent round-trips the index through Save/Reload and
// expects a codec_reload event plus working instrumentation afterwards.
func TestObserveReloadEvent(t *testing.T) {
	idx := open(t)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	idx.Observe(o)
	if err := idx.Reload(&buf); err != nil {
		t.Fatal(err)
	}
	if counts := eventTypes(o.Events.Recent(0)); counts[obs.EventCodecReload] != 1 {
		t.Fatalf("codec_reload events = %d, want 1", counts[obs.EventCodecReload])
	}
	// The reloaded graphs must be observed too: a promotion still emits.
	if _, err := idx.Apply(Mutation{Op: MutPromote, Label: "title", K: 1}); err != nil {
		t.Fatal(err)
	}
	if counts := eventTypes(o.Events.Recent(0)); counts[obs.EventPromote] != 1 {
		t.Fatal("promotion after reload not observed")
	}
}

// TestObservedCostBitIdentical runs the same queries on an observed index
// (trace sampling every query) and an unobserved twin, and requires identical
// results and bit-identical cost counters.
func TestObservedCostBitIdentical(t *testing.T) {
	plain := open(t)
	observed := open(t)
	o := obs.NewObserverWith(obs.NewRegistry(), obs.NewStream(16), obs.NewTracer(1, 8))
	observed.Observe(o)

	type result struct {
		res   []NodeID
		stats QueryStats
	}
	runAll := func(x *Index) []result {
		var out []result
		for _, q := range []string{"director.movie.title", "name", "movieDB.movie"} {
			res, stats, err := query(x, KindPath, q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, result{res, stats})
		}
		res, stats, err := query(x, KindRPE, "movieDB//name")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{res, stats})
		res, stats, err = query(x, KindTwig, "movie[actor.name].title")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, result{res, stats})
		return out
	}
	got, want := runAll(observed), runAll(plain)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed runs = %+v\nwant (unobserved) %+v", got, want)
	}
	if o.Tracer.Sampled() != 5 {
		t.Errorf("traces sampled = %d, want 5", o.Tracer.Sampled())
	}
	for _, tr := range o.Tracer.Recent(0) {
		if len(tr.Spans) == 0 {
			t.Errorf("trace %s %q has no spans", tr.Kind, tr.Query)
		}
	}
}

// TestObserveMetricsExposition checks the metrics the facade feeds: query
// counters by kind, size gauges matching Stats, dangling-ref counts from
// document loads, and the per-stage commit histogram.
func TestObserveMetricsExposition(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)

	if _, _, err := query(idx, KindPath, "director.movie.title"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := query(idx, KindPath, ""); err == nil {
		t.Fatal("empty query accepted")
	}
	// One dangling IDREF in the grafted document.
	if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte(`<movieDB><actor movieref="nosuch"><name/></actor></movieDB>`)}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheusText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("metrics output unparsable: %v", err)
	}
	find := func(name, labelKey, labelVal string) float64 {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing", name)
		}
		for _, s := range f.Samples {
			if labelKey == "" || s.Labels[labelKey] == labelVal {
				return s.Value
			}
		}
		t.Fatalf("%s{%s=%q} missing", name, labelKey, labelVal)
		return 0
	}
	if v := find(obs.MetricQueries, "kind", "path"); v != 1 {
		t.Errorf("path queries = %v, want 1", v)
	}
	if v := find(obs.MetricQueryErrors, "kind", "path"); v != 1 {
		t.Errorf("path query errors = %v, want 1", v)
	}
	if v := find(obs.MetricDanglingRefs, "", ""); v != 1 {
		t.Errorf("dangling refs = %v, want 1", v)
	}
	s := idx.Stats()
	if v := find(obs.MetricIndexNodes, "", ""); int(v) != s.IndexNodes {
		t.Errorf("index nodes gauge = %v, Stats says %d", v, s.IndexNodes)
	}
	if v := find(obs.MetricDataNodes, "", ""); int(v) != s.DataNodes {
		t.Errorf("data nodes gauge = %v, Stats says %d", v, s.DataNodes)
	}
	// The one commit above (the document graft) is attributed stage by stage.
	stages := fams[obs.MetricBatchStageSeconds]
	if stages == nil || stages.Type != "histogram" {
		t.Fatalf("family %s = %+v, want a histogram", obs.MetricBatchStageSeconds, stages)
	}
	counts := map[string]float64{}
	for _, smp := range stages.Samples {
		if smp.Name == obs.MetricBatchStageSeconds+"_count" {
			counts[smp.Labels["stage"]] = smp.Value
		}
	}
	for _, stage := range []string{"clone", "apply", "wal", "publish"} {
		if counts[stage] != 1 {
			t.Errorf("stage %q observed %v commits, want 1 (all stages: %v)", stage, counts[stage], counts)
		}
	}
	if len(counts) != 4 {
		t.Errorf("stage label values %v, want exactly clone/apply/wal/publish", counts)
	}
}

// TestObserveBuildMetrics checks the construction observability the facade
// feeds on every rebuild: a build lifecycle event with the trigger in its
// detail, the per-trigger build counter, and the construction histograms.
func TestObserveBuildMetrics(t *testing.T) {
	idx := open(t)
	o := obs.NewObserver()
	idx.Observe(o)

	if _, err := idx.Apply(Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(Mutation{Op: MutDemote, Reqs: map[string]int{"title": 1}}); err != nil {
		t.Fatal(err)
	}

	types := eventTypes(o.Events.Recent(0))
	if types[obs.EventBuild] != 2 {
		t.Fatalf("build events = %d, want 2 (events: %v)", types[obs.EventBuild], types)
	}
	var detail string
	for _, e := range o.Events.Recent(0) {
		if e.Type == obs.EventBuild {
			detail = e.Detail
			break
		}
	}
	if !strings.Contains(detail, "trigger=set_requirements") || !strings.Contains(detail, "rounds=") {
		t.Fatalf("build event detail = %q", detail)
	}

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheusText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("metrics output unparsable: %v", err)
	}
	byTrigger := map[string]float64{}
	for _, s := range fams[obs.MetricBuilds].Samples {
		byTrigger[s.Labels["trigger"]] = s.Value
	}
	if byTrigger["set_requirements"] != 1 || byTrigger["demote"] != 1 {
		t.Fatalf("build counters = %v", byTrigger)
	}
	for _, fam := range []string{obs.MetricBuildSeconds, obs.MetricBuildRounds, obs.MetricBuildCSRSeconds} {
		if fams[fam] == nil || fams[fam].Type != "histogram" {
			t.Errorf("family %s missing or not histogram", fam)
		}
	}
	if fams[obs.MetricBuildPeakBlocks] == nil {
		t.Error("peak blocks gauge missing")
	}
}
