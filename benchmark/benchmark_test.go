package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dkindex"
	"dkindex/internal/fsx"
)

// fakePrepared is enough of prep.json for the op lists: a plan of n ops and
// pools of distinct edges and documents.
func fakePrepared(n int) *prepared {
	p := &prepared{Plan: make([]planOp, n)}
	for i := 0; i < 68; i++ {
		p.StoreEdges = append(p.StoreEdges, [2]dkindex.NodeID{dkindex.NodeID(i), dkindex.NodeID(1000 + i)})
	}
	for i := 0; i < 32; i++ {
		p.EdgePool = append(p.EdgePool, [2]dkindex.NodeID{dkindex.NodeID(2000 + i), dkindex.NodeID(3000 + i)})
	}
	for i := 0; i < 24; i++ {
		doc, _ := fragment(i)
		p.Docs = append(p.Docs, doc)
	}
	return p
}

func TestOpListFollowsSeed(t *testing.T) {
	p := fakePrepared(50)
	sum := func(w *workload, seed int64) uint64 {
		l := w.ops(p, smokeSizes, seed)
		for i := 0; i < 3; i++ {
			l.round()
		}
		return l.sum.Sum64()
	}
	for _, w := range workloads {
		if a, b := sum(w, 7), sum(w, 7); a != b {
			t.Errorf("%s: seed 7 gives op lists %016x and %016x", w.name, a, b)
		}
		if a, b := sum(w, 7), sum(w, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 give the same op list %016x", w.name, a)
		}
	}
}

func TestReadRoundsHoldTheSameQueries(t *testing.T) {
	// Whatever the seed, a read round is whole passes over the plan and a
	// mixed round is the Zipf multiset: only the order may differ.
	counts := func(ops []int32, n int) []int {
		c := make([]int, n)
		for _, o := range ops {
			if o >= 0 {
				c[o]++
			}
		}
		return c
	}
	p := fakePrepared(50)
	for _, name := range []string{"read_cold", "mixed_rw"} {
		w := findWorkload(name)
		a := counts(w.ops(p, smokeSizes, 1).round().ops, 50)
		b := counts(w.ops(p, smokeSizes, 2).round().ops, 50)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: rounds of seeds 1 and 2 hold different queries:\n%v\n%v", name, a, b)
		}
	}
}

func TestZipfMultiset(t *testing.T) {
	ms := zipfMultiset(269, 768)
	if len(ms) != 768 {
		t.Fatalf("multiset has %d entries, want 768", len(ms))
	}
	c := make([]int, 269)
	for _, i := range ms {
		c[i]++
	}
	for i := 1; i < len(c); i++ {
		if c[i] > c[i-1] {
			t.Fatalf("op %d drawn %d times, op %d only %d", i, c[i], i-1, c[i-1])
		}
	}
	if c[0] < 2*c[1]-2 || c[0] > 2*c[1]+2 {
		t.Errorf("rank 1 drawn %d times, rank 2 %d: not Zipf(1)", c[0], c[1])
	}
}

func TestEstimators(t *testing.T) {
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median of 3 = %v, want 4", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	// Nearest rank: p90 of 1..128 leaves 12 samples beyond it.
	s := make([]int64, 128)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := percentile(s, 0.90); got != 116 {
		t.Errorf("p90 of 1..128 = %d, want 116", got)
	}
	if got := percentile(s, 0.50); got != 64 {
		t.Errorf("p50 of 1..128 = %d, want 64", got)
	}
	if got := percentile(s[:1], 0.99); got != 1 {
		t.Errorf("p99 of one sample = %d, want it", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles of 1,2,4,8 = %v, %v, want 1.25, 7", q1, q3)
	}
	if got, want := spread([]float64{1, 2, 4, 8}), (7-1.25)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// The median across rounds ignores the few rounds a noisy neighbour slowed.
	rounds := []float64{1.00, 1.01, 0.99, 1.62, 1.02, 1.00, 1.48, 1.01}
	if got := median(rounds); got < 0.99 || got > 1.02 {
		t.Errorf("median(%v) = %v, want about 1", rounds, got)
	}
}

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	c := &countingFS{FS: fsx.OS{}}
	n, err := fsx.WriteAtomic(c, filepath.Join(dir, "f"), func(w io.Writer) error {
		if _, err := w.Write([]byte("hello ")); err != nil {
			return err
		}
		_, err := w.Write([]byte("world"))
		return err
	})
	if err != nil || n != 11 {
		t.Fatalf("WriteAtomic = %d, %v", n, err)
	}
	want := fsCounts{Writes: 2, WriteBytes: 11, Fsyncs: 1, DirSyncs: 1, Renames: 1}
	if got := c.counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if got := c.counts().sub(want); got != (fsCounts{}) {
		t.Errorf("sub = %+v, want zero", got)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "f")); err != nil || string(got) != "hello world" {
		t.Errorf("file holds %q, %v", got, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op 1: server 0..100 > run 10..70 ; op 2: server 100..400 > apply 120..380 > sync 200..300
	tr := newTracer()
	add := func(name string, parent, op int32, start, end int64) int32 {
		id, ok := tr.ids[name]
		if !ok {
			id = int32(len(tr.names))
			tr.names = append(tr.names, name)
			tr.ids[name] = id
		}
		tr.spans = append(tr.spans, span{name: id, parent: parent, op: op, start: start, end: end})
		return int32(len(tr.spans) - 1)
	}
	s1 := add("server", -1, 1, 0, 100)
	add("dkindex.run", s1, 1, 10, 70)
	s2 := add("server", -1, 2, 100, 400)
	a := add("dkindex.apply_batch", s2, 2, 120, 380)
	add("fsx.sync", a, 2, 200, 300)

	got := tr.selfTimes(0)
	want := map[string]layerTime{
		"server":              {Count: 2, SelfNS: 40 + 40, WallNS: 100 + 300},
		"dkindex.run":         {Count: 1, SelfNS: 60, WallNS: 60},
		"dkindex.apply_batch": {Count: 1, SelfNS: 160, WallNS: 260},
		"fsx.sync":            {Count: 1, SelfNS: 100, WallNS: 100},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
	var self int64
	for _, lt := range got {
		self += lt.SelfNS
	}
	if self != 400 {
		t.Errorf("self times sum to %d, the two ops took 400", self)
	}
	reads, writes := tr.rootDurations(0)
	if !reflect.DeepEqual(reads, []int64{100}) || !reflect.DeepEqual(writes, []int64{300}) {
		t.Errorf("rootDurations = %v, %v, want [100], [300]", reads, writes)
	}
	// Spans before `from` are left out, and so is their share of a parent.
	if got := tr.selfTimes(2)["server"]; got != (layerTime{Count: 1, SelfNS: 40, WallNS: 300}) {
		t.Errorf("selfTimes(2)[server] = %+v", got)
	}
}

// smokeRun runs one workload at the smoke size, preparing in-process.
func smokeRun(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	res, err := runWorkload(runConfig{
		w: w, seed: 3, seconds: 1, trace: trace, dir: t.TempDir(), sz: smokeSizes,
		prepare: prepare, out: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		res := smokeRun(t, w, false)
		for _, name := range runLevel {
			def, _ := findDef(name)
			m, ok := res.Metrics[name]
			if !ok || m.Unit != def.unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.name, name, m, ok, def.unit)
			}
		}
		if len(res.Metrics) != len(runLevel) {
			t.Errorf("%s: %d metrics reported, want %d", w.name, len(res.Metrics), len(runLevel))
		}
	}
}

func TestSmokeTracedRun(t *testing.T) {
	res := smokeRun(t, findWorkload("mixed_rw"), true)
	for _, def := range perLayer {
		m, ok := res.Metrics[def.name]
		if !ok || m.Unit != def.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %+v (present %v), want a number in %s", def.name, m, ok, def.unit)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
	}
	// The counts of the paper's cost model and of the device layer are exact.
	for name, want := range map[string]float64{
		"fsx.fsyncs_per_batch":         1,
		"batcher.mutations_per_commit": mutationsPerBatch,
		"qcache.hit_ratio.read_hot":    1,
	} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestMetricTables checks the tables against the limits the builder's
// contract puts on BENCHMARK.json.
func TestMetricTables(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[def.name] {
			t.Errorf("metric %s is listed twice", def.name)
		}
		seen[def.name] = true
		if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", def.name, def.unit)
		}
		if def.better != "lower" && def.better != "higher" {
			t.Errorf("metric %s is better %q", def.name, def.better)
		}
	}
	for _, def := range endToEnd {
		// The benchmark's own rule is at most 0.10; set-up time alone takes
		// the contract's 0.25, because it can be neither dropped nor steadied.
		if limit := map[bool]float64{false: 0.10, true: 0.25}[def.name == "setup_s"]; def.bound <= 0 || def.bound > limit {
			t.Errorf("%s has bound %v, above %v", def.name, def.bound, limit)
		}
	}
	for _, def := range perLayer {
		if def.moves == "" {
			t.Errorf("%s does not say what it should move", def.name)
		}
	}
	for _, name := range runLevel {
		if !seen[name] {
			t.Errorf("run-level metric %s is in neither table", name)
		}
	}
	if def, bounded := findDef("setup_s"); !bounded || def.unit != "s" || def.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why (%d characters) breaks the rules", w.name, len(w.why))
		}
	}
}

// TestManifest keeps BENCHMARK.json and the metric tables in step.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var got any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(manifestJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
}
