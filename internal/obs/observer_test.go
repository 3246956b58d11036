package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dkindex/internal/obs/promtest"
)

// TestNilObserver checks every Observer method is inert on a nil receiver,
// and that the handles it gives out ignore writes.
func TestNilObserver(t *testing.T) {
	var o *Observer
	o.ObserveQuery("path", time.Millisecond, CostSample{}, 1)
	o.CountKind(QueryErrors, "rpe")
	if o.SampleTrace("path", "q") != nil {
		t.Fatal("nil observer sampled a trace")
	}
	o.RecordEvent(Event{Type: EventPromote})
	o.Gauge(IndexNodes).Set(3)
	o.Counter(DanglingRefs).Add(3)
	o.ObserveBuild("retune", BuildSample{Rounds: 2, Total: time.Millisecond})
	o.SetExtentMemory(MemorySample{ExtentSparseBytes: 1})
	if o.Counter(DanglingRefs) != nil || o.Gauge(IndexNodes) != nil {
		t.Fatal("nil observer handed out a live handle")
	}
}

// TestObserverBuildMetrics exercises the construction metrics end to end:
// ObserveBuild feeds the per-trigger counters and histograms, the text
// exposition parses back, and the build lifecycle event lands in the stream
// with its counter.
func TestObserverBuildMetrics(t *testing.T) {
	o := NewObserver()
	o.ObserveBuild("optimize", BuildSample{
		Rounds: 3, Splits: 120, PeakBlocks: 450,
		CSRBuild: 2 * time.Millisecond, Total: 40 * time.Millisecond,
	})
	o.ObserveBuild("optimize", BuildSample{Rounds: 1, Splits: 10, PeakBlocks: 460, Total: 5 * time.Millisecond})
	o.ObserveBuild("retune", BuildSample{Rounds: 4, Splits: 7, PeakBlocks: 200, Total: 9 * time.Millisecond})
	o.RecordEvent(Event{Type: EventBuild, Detail: "trigger=retune rounds=4"})

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	byTrigger := map[string]float64{}
	for _, s := range fams[Builds.Name].Samples {
		byTrigger[s.Labels["trigger"]] = s.Value
	}
	if byTrigger["optimize"] != 2 || byTrigger["retune"] != 1 {
		t.Fatalf("build counters = %v", byTrigger)
	}
	for _, fam := range []string{BuildSeconds.Name, BuildCSRSeconds.Name, BuildRounds.Name} {
		if fams[fam] == nil || fams[fam].Type != "histogram" {
			t.Errorf("family %s missing or not histogram", fam)
		}
	}
	if f := fams[BuildSplits.Name]; f == nil || f.Samples[0].Value != 137 {
		t.Errorf("splits = %+v, want 137", f)
	}
	if f := fams[BuildPeakBlocks.Name]; f == nil || f.Samples[0].Value != 200 {
		t.Errorf("peak blocks = %+v, want 200 (most recent build)", f)
	}
	byType := map[string]float64{}
	for _, s := range fams[LifecycleEvents.Name].Samples {
		byType[s.Labels["type"]] = s.Value
	}
	if byType[string(EventBuild)] != 1 {
		t.Fatalf("lifecycle counters = %v, want one %q", byType, EventBuild)
	}
	ev := o.Events.Recent(1)
	if len(ev) != 1 || ev[0].Type != EventBuild || !strings.Contains(ev[0].Detail, "trigger=retune") {
		t.Fatalf("build event = %+v", ev)
	}
}

func TestObserverQueryMetrics(t *testing.T) {
	o := NewObserver()
	o.ObserveQuery("path", 2*time.Millisecond, CostSample{IndexNodesVisited: 10, DataNodesValidated: 4, Validations: 2}, 7)
	o.ObserveQuery("path", time.Millisecond, CostSample{IndexNodesVisited: 3}, 0)
	o.CountKind(QueryErrors, "rpe")
	o.ObserveQuery("custom", time.Microsecond, CostSample{}, 1) // not a kind Run serves: dropped

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	totals := map[string]float64{}
	for _, s := range fams[Queries.Name].Samples {
		totals[s.Labels["kind"]] = s.Value
	}
	if totals["path"] != 2 || len(totals) != 3 {
		t.Fatalf("totals = %v, want path=2 over the three served kinds", totals)
	}
	var errPath, errRPE float64
	for _, s := range fams[QueryErrors.Name].Samples {
		switch s.Labels["kind"] {
		case "path":
			errPath = s.Value
		case "rpe":
			errRPE = s.Value
		}
	}
	if errPath != 0 || errRPE != 1 {
		t.Fatalf("errors path=%v rpe=%v", errPath, errRPE)
	}
	for _, fam := range []string{QuerySeconds.Name, QueryIndexVisited.Name, QueryDataValidated.Name, QueryValidations.Name, QueryResults.Name} {
		if fams[fam] == nil || fams[fam].Type != "histogram" {
			t.Errorf("family %s missing or not histogram", fam)
		}
	}
}

func TestObserverEventsAndGauges(t *testing.T) {
	o := NewObserver()
	o.RecordEvent(Event{Type: EventPromote, Label: "item"})
	o.RecordEvent(Event{Type: EventPromote, Label: "name"})
	o.RecordEvent(Event{Type: EventExtentSplit})
	for f, v := range map[*Family]float64{DataNodes: 100, DataEdges: 200, IndexNodes: 30, IndexEdges: 40, IndexMaxK: 5} {
		o.Gauge(f).Set(v)
	}
	o.Counter(DanglingRefs).Add(2)

	if got := len(o.Events.Recent(0)); got != 3 {
		t.Fatalf("stream len = %d, want 3", got)
	}
	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	byType := map[string]float64{}
	for _, s := range fams[LifecycleEvents.Name].Samples {
		byType[s.Labels["type"]] = s.Value
	}
	if byType["promote"] != 2 || byType["extent_split"] != 1 {
		t.Fatalf("lifecycle counters = %v", byType)
	}
	for name, want := range map[string]float64{
		DataNodes.Name: 100, DataEdges.Name: 200,
		IndexNodes.Name: 30, IndexEdges.Name: 40, IndexMaxK.Name: 5,
	} {
		if f := fams[name]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != want {
			t.Errorf("%s = %+v, want %v", name, f, want)
		}
	}
	if f := fams[DanglingRefs.Name]; f == nil || f.Samples[0].Value != 2 {
		t.Errorf("dangling = %+v, want 2", f)
	}
}

// TestObserverConcurrent drives all observer surfaces concurrently; run with
// -race. Exercises first-use registration of event-type series.
func TestObserverConcurrent(t *testing.T) {
	o := NewObserver()
	kinds := queryKinds
	evTypes := []EventType{EventEdgeAdd, EventEdgeRemove, EventPromote}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := kinds[(w+i)%len(kinds)]
				o.ObserveQuery(k, time.Microsecond, CostSample{IndexNodesVisited: i}, i%5)
				o.RecordEvent(Event{Type: evTypes[(w+i)%len(evTypes)]})
				if tt := o.SampleTrace(k, "q"); tt != nil {
					o.Tracer.Finish(tt)
				}
				if i%40 == 0 {
					var sb strings.Builder
					if err := o.Registry.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total, events uint64
	for i := range kinds {
		total += o.fixed[Queries.id][i].c.Value()
		events += LifecycleEvents.Counter(o.Registry, string(evTypes[i])).Value()
	}
	if total != 8*200 || events != 8*200 {
		t.Fatalf("total queries = %d, events = %d, want %d each", total, events, 8*200)
	}
}
