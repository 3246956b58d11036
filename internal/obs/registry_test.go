package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// testRow declares a row of a test's own; the table's rows are exercised
// through the observer.
func testRow(typ MetricType, name, help string, bounds []float64, keys ...string) *Family {
	f := &Family{Name: name, Type: typ, Help: help, Bounds: bounds}
	for _, k := range keys {
		f.Keys = append(f.Keys, Key{Name: k})
	}
	return f
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	cRow := testRow(CounterType, "c_total", "a counter", nil)
	c := cRow.Counter(r)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := cRow.Counter(r); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := testRow(GaugeType, "g", "a gauge", nil).Gauge(r)
	g.Set(10)
	g.Add(-2.5)
	if g.Value() != 7.5 {
		t.Errorf("gauge = %v, want 7.5", g.Value())
	}

	h := testRow(HistogramType, "h", "a histogram", []float64{1, 10, 100}).Histogram(r)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("sum = %v, want 556.5", h.Sum())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on type mismatch")
		}
	}()
	r := NewRegistry()
	testRow(CounterType, "m", "as counter", nil).Counter(r)
	testRow(GaugeType, "m", "as gauge", nil).Gauge(r)
}

// TestWritePrometheusRoundTrip renders a populated registry and re-parses it
// with the minimal text-format parser, checking families, labels, values and
// histogram cumulativity survive the trip.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	total := testRow(CounterType, "rt_total", "requests", nil, "kind")
	total.Counter(r, "path").Add(3)
	total.Counter(r, "rpe").Add(7)
	testRow(GaugeType, "rt_size", `a "quoted\" help`, nil).Gauge(r).Set(42)
	h := testRow(HistogramType, "rt_seconds", "latency", []float64{0.1, 1}, "kind").Histogram(r, "path")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheusText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\noutput:\n%s", err, sb.String())
	}
	ct := fams["rt_total"]
	if ct == nil || ct.Type != "counter" || len(ct.Samples) != 2 {
		t.Fatalf("rt_total = %+v", ct)
	}
	want := map[string]float64{"path": 3, "rpe": 7}
	for _, s := range ct.Samples {
		if s.Value != want[s.Labels["kind"]] {
			t.Errorf("rt_total{kind=%s} = %v, want %v", s.Labels["kind"], s.Value, want[s.Labels["kind"]])
		}
	}
	if g := fams["rt_size"]; g == nil || g.Type != "gauge" || g.Samples[0].Value != 42 {
		t.Fatalf("rt_size = %+v", g)
	}
	hist := fams["rt_seconds"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("rt_seconds = %+v", hist)
	}
	// buckets: le=0.1 -> 1, le=1 -> 2, le=+Inf -> 3; sum 5.55; count 3.
	got := map[string]float64{}
	for _, s := range hist.Samples {
		switch s.Name {
		case "rt_seconds_bucket":
			got["le="+s.Labels["le"]] = s.Value
		case "rt_seconds_sum":
			got["sum"] = s.Value
		case "rt_seconds_count":
			got["count"] = s.Value
		}
	}
	for k, want := range map[string]float64{"le=0.1": 1, "le=1": 2, "le=+Inf": 3, "count": 3} {
		if got[k] != want {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
	if math.Abs(got["sum"]-5.55) > 1e-9 {
		t.Errorf("sum = %v, want 5.55", got["sum"])
	}
}

// TestRegistryConcurrent exercises registration and updates from many
// goroutines; run under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	cc := testRow(CounterType, "cc_total", "c", nil)
	cg := testRow(GaugeType, "cg", "g", nil)
	ch := testRow(HistogramType, "ch", "h", []float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cc.Counter(r).Inc()
				cg.Gauge(r).Add(1)
				ch.Histogram(r).Observe(float64(i % 3))
				if i%50 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := cc.Counter(r).Value(); got != 8*500 {
		t.Errorf("cc_total = %d, want %d", got, 8*500)
	}
	if got := cg.Gauge(r).Value(); got != 8*500 {
		t.Errorf("cg = %v, want %d", got, 8*500)
	}
	if got := ch.Histogram(r).Count(); got != 8*500 {
		t.Errorf("ch count = %d, want %d", got, 8*500)
	}
}

func TestParsePrometheusTextErrors(t *testing.T) {
	for _, bad := range []string{
		`orphan_sample 1`,                         // sample without family
		"# TYPE a counter\nb 1",                   // sample under wrong family
		"# TYPE a counter\na{x=\"y\"",             // unterminated labels
		"# TYPE a counter\na{x=\"y\"} notanumber", // bad value
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1", // non-cumulative
	} {
		if _, err := ParsePrometheusText(strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}
