// Package obs is the zero-dependency observability layer: a concurrency-safe
// metrics registry with Prometheus text-format exposition, a bounded
// subscribable stream of index lifecycle events, and sampled per-query traces
// with nil-safe stage recording.
//
// The package deliberately imports nothing from the rest of the module, so
// every layer — the dkindex facade, the evaluators, the HTTP server and the
// command-line tools — can report into it without dependency cycles. All hot
// paths are designed so that the *uninstrumented* case (nil Observer, nil
// Trace) costs a single pointer comparison and zero allocations.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be non-negative for the Prometheus contract;
// this is not enforced at runtime to keep the hot path branch-free).
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Stored as float64 bits so it can
// carry sizes and seconds alike; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bounds are cumulative upper limits
// in ascending order, with a +Inf bucket appended implicitly. Observations
// are lock-free (one atomic add on a bucket, one on the count, one CAS loop
// on the sum).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n bucket bounds starting at start and multiplying by
// factor: the standard shape for latencies and work counters.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// series is one labeled instance within a family.
type series struct {
	labels []Label
	key    string // canonical rendered label string, for lookup and ordering
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	bounds     []float64 // histogram families only
	series     []*series
	byKey      map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration takes a lock; the returned metric handles
// are lock-free, so hot paths should register once and reuse them.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, bounds []float64) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (f *family) seriesFor(labels []Label) *series {
	key := renderLabels(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	return s
}

// Counter registers (or returns the existing) counter series name{labels}.
// Registering the same name with a different metric type panics.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindCounter, nil).seriesFor(labels).c
}

// Gauge registers (or returns the existing) gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindGauge, nil).seriesFor(labels).g
}

// Histogram registers (or returns the existing) histogram series name{labels}
// with the given cumulative upper bounds (ascending; +Inf appended
// implicitly). Bounds are fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindHistogram, bounds).seriesFor(labels).h
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families in registration order and
// series in label order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// A registration appends to and re-sorts a family's series in place, so
	// the lists are copied under the lock; the series themselves are atomics.
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	lists := make([][]*series, len(fams))
	for i, f := range fams {
		lists[i] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()
	var b strings.Builder
	for i, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range lists[i] {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.key, formatFloat(float64(s.c.Value())))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.key, formatFloat(s.g.Value()))
			case kindHistogram:
				cum := uint64(0)
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						withLabel(s.labels, "le", formatFloat(bound)), cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.key, formatFloat(s.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.key, cum)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// renderLabels renders a canonical {k="v",...} string, empty for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel renders labels plus one extra pair (the histogram "le" bound).
func withLabel(labels []Label, key, value string) string {
	return renderLabels(append(append([]Label(nil), labels...), Label{key, value}))
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
