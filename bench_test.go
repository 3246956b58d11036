package dkindex

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus micro-benchmarks for the individual
// operations. Figure benchmarks regenerate the corresponding series at
// paper scale (~10 MB XMark / ~15 MB NASA equivalents, override with
// DK_BENCH_SCALE) and report the headline numbers as custom metrics; run
// with -v to see the full rendered series. `cmd/dkbench` prints the same
// rows interactively.

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dkindex/internal/codec"
	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/eval"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/obs"
	"dkindex/internal/rpe"
	"dkindex/internal/xmlgraph"
)

func benchScale() float64 {
	if s := os.Getenv("DK_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 1.0
}

var (
	xmarkOnce sync.Once
	xmarkDS   *experiments.Dataset
	nasaOnce  sync.Once
	nasaDS    *experiments.Dataset
	dblpOnce  sync.Once
	dblpDS    *experiments.Dataset
)

func benchXMark(b *testing.B) *experiments.Dataset {
	b.Helper()
	xmarkOnce.Do(func() {
		ds, err := experiments.XMarkDataset(benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		xmarkDS = ds
	})
	return xmarkDS
}

func benchNasa(b *testing.B) *experiments.Dataset {
	b.Helper()
	nasaOnce.Do(func() {
		ds, err := experiments.NasaDataset(benchScale()*1.5, 1)
		if err != nil {
			b.Fatal(err)
		}
		nasaDS = ds
	})
	return nasaDS
}

func benchDblp(b *testing.B) *experiments.Dataset {
	b.Helper()
	dblpOnce.Do(func() {
		ds, err := experiments.DblpDataset(benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		dblpDS = ds
	})
	return dblpDS
}

// benchBuild measures the construction trio on one dataset: the 1-index
// (full backward bisimulation to a fixpoint), the A(2)-index (two refinement
// rounds), and the load-tuned D(k)-index (Algorithms 1+2). These are the
// build-pipeline headline benchmarks: every facade mutation that rebuilds
// (Tune, set_requirements, optimize, compact) pays exactly these paths, so
// construction latency is mutation-publish latency. Run the trio for XMark,
// NASA and DBLP with `go test -run '^$' -bench 'BenchmarkBuild' -benchmem .`.
func benchBuild(b *testing.B, ds *experiments.Dataset) {
	b.Helper()
	reqs := ds.W.Requirements()
	b.Run("1index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.Build1Index(ds.G)
		}
	})
	b.Run("AK2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.BuildAK(ds.G, 2)
		}
	})
	b.Run("DK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Build(ds.G, reqs)
		}
	})
}

// Construction hot-path overhaul (DK_BENCH_SCALE=1.0, -benchtime 1s, same
// machine; CSR adjacency snapshots + counting-sort refinement + parallel
// rounds vs the map-of-byte-string baseline):
//
//	BuildXMark/1index  before: 168.0ms 108MB 2.07M allocs   after: 78.5ms 43MB 233K allocs   (2.1x)
//	BuildXMark/AK2     before:  19.0ms  10MB  181K allocs   after: 13.8ms  7MB 5.4K allocs   (1.4x)
//	BuildXMark/DK      before:  37.2ms  18MB  370K allocs   after: 21.8ms  8MB  14K allocs   (1.7x)
//	BuildNasa/1index   before: 428.6ms 204MB 3.77M allocs   after: 208ms  97MB 659K allocs   (2.1x)
//	BuildDblp/1index   before: 375.8ms 198MB 3.82M allocs   after: 156ms  73MB 332K allocs   (2.4x)
func BenchmarkBuildXMark(b *testing.B) { benchBuild(b, benchXMark(b)) }

// BenchmarkBuildNasa is the construction trio on the NASA dataset.
func BenchmarkBuildNasa(b *testing.B) { benchBuild(b, benchNasa(b)) }

// BenchmarkBuildDblp is the construction trio on the DBLP dataset, whose
// dense citation structure stresses signature grouping hardest.
func BenchmarkBuildDblp(b *testing.B) { benchBuild(b, benchDblp(b)) }

// benchMemFootprint measures the succinct-set memory experiment on one
// dataset and reports the D(k) row's headline numbers — resident and raw set
// bytes, the compression ratio, and resident bytes per data node — as custom
// metrics. Run all three datasets with
// `go test -run '^$' -bench 'BenchmarkMemFootprint' .`.
func benchMemFootprint(b *testing.B, ds *experiments.Dataset) {
	b.Helper()
	var rows []experiments.MemRow
	for i := 0; i < b.N; i++ {
		rows = experiments.MemoryFootprint(ds, 0)
	}
	var sb strings.Builder
	if err := experiments.RenderMemRows(&sb, "Memory footprint ("+ds.Name+")", rows); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
	dk := rows[len(rows)-1]
	b.ReportMetric(float64(dk.Resident()), "dk_set_bytes")
	b.ReportMetric(float64(dk.Raw()), "dk_raw_bytes")
	b.ReportMetric(dk.Ratio(), "dk_compression_x")
	b.ReportMetric(dk.BytesPerNode(), "dk_bytes/node")
}

// BenchmarkMemFootprintXMark measures extent/posting footprint on XMark.
func BenchmarkMemFootprintXMark(b *testing.B) { benchMemFootprint(b, benchXMark(b)) }

// BenchmarkMemFootprintNasa measures extent/posting footprint on NASA.
func BenchmarkMemFootprintNasa(b *testing.B) { benchMemFootprint(b, benchNasa(b)) }

// BenchmarkMemFootprintDblp measures extent/posting footprint on DBLP, whose
// citation-fragmented extents are the sparse-encoding stress case.
func BenchmarkMemFootprintDblp(b *testing.B) { benchMemFootprint(b, benchDblp(b)) }

// reportSeries logs the rendered series and reports the D(k) headline
// numbers as metrics.
func reportSeries(b *testing.B, title string, points []experiments.EvalPoint) {
	b.Helper()
	var sb strings.Builder
	if err := experiments.RenderEvalPoints(&sb, title, points); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
	dk := points[len(points)-1]
	best := points[0]
	for _, p := range points[:len(points)-1] {
		if p.AvgCost < best.AvgCost {
			best = p
		}
	}
	b.ReportMetric(float64(dk.Size), "dk_size")
	b.ReportMetric(dk.AvgCost, "dk_avg_cost")
	b.ReportMetric(float64(best.Size), "bestA_size")
	b.ReportMetric(best.AvgCost, "bestA_avg_cost")
}

// BenchmarkFig4XMarkEvaluation regenerates Figure 4: evaluation cost vs
// index size on XMark before updates, A(0..4) plus the load-tuned D(k).
func BenchmarkFig4XMarkEvaluation(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.EvaluationBeforeUpdate(ds, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, "Figure 4 (Xmark, before updating)", points)
		}
	}
}

// BenchmarkFig5NasaEvaluation regenerates Figure 5 (NASA, before updates).
func BenchmarkFig5NasaEvaluation(b *testing.B) {
	ds := benchNasa(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.EvaluationBeforeUpdate(ds, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, "Figure 5 (Nasa, before updating)", points)
		}
	}
}

func benchTable1(b *testing.B, ds *experiments.Dataset) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UpdateEfficiency(ds, experiments.AfterUpdateConfig{Edges: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			if err := experiments.RenderUpdateRows(&sb, "Table 1: 100 edge additions", rows); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
			dk := rows[len(rows)-1]
			b.ReportMetric(float64(dk.Elapsed.Microseconds())/1000, "dk_ms")
			b.ReportMetric(float64(rows[0].Elapsed.Microseconds())/1000, "a1_ms")
			b.ReportMetric(float64(rows[len(rows)-2].Elapsed.Microseconds())/1000, "amax_ms")
		}
	}
}

// BenchmarkTable1UpdateXMark regenerates Table 1's XMark column: the total
// running time of 100 random reference-edge additions under each index's
// update algorithm.
func BenchmarkTable1UpdateXMark(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	benchTable1(b, ds)
}

// BenchmarkTable1UpdateNasa regenerates Table 1's NASA column.
func BenchmarkTable1UpdateNasa(b *testing.B) {
	ds := benchNasa(b)
	b.ResetTimer()
	benchTable1(b, ds)
}

// BenchmarkFig6XMarkAfterUpdate regenerates Figure 6: evaluation cost vs
// index size on XMark after 100 edge additions.
func BenchmarkFig6XMarkAfterUpdate(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.EvaluationAfterUpdate(ds, experiments.AfterUpdateConfig{Edges: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, "Figure 6 (Xmark, after 100 edge additions)", points)
		}
	}
}

// BenchmarkFig7NasaAfterUpdate regenerates Figure 7 (NASA, after updates).
func BenchmarkFig7NasaAfterUpdate(b *testing.B) {
	ds := benchNasa(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiments.EvaluationAfterUpdate(ds, experiments.AfterUpdateConfig{Edges: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, "Figure 7 (Nasa, after 100 edge additions)", points)
		}
	}
}

// BenchmarkAblationPromote measures the maintenance cycle the paper defers
// to its full version: D(k) decay under 100 edge additions, then recovery
// via the promoting process.
func BenchmarkAblationPromote(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationPromote(ds, experiments.AfterUpdateConfig{Edges: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			if err := experiments.RenderPromoteAblation(&sb, "Promotion ablation (Xmark)", a); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
			b.ReportMetric(a.Decayed.AvgCost, "decayed_cost")
			b.ReportMetric(a.Recovered.AvgCost, "recovered_cost")
			b.ReportMetric(float64(a.PromoteElapsed.Microseconds())/1000, "promote_ms")
		}
	}
}

// --- Micro-benchmarks: individual operations ---

// BenchmarkConstructionLabelSplit measures A(0) construction on XMark.
func BenchmarkConstructionLabelSplit(b *testing.B) {
	g := benchXMark(b).G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.BuildLabelSplit(g)
	}
}

// BenchmarkConstructionAK measures A(2) construction on XMark.
func BenchmarkConstructionAK(b *testing.B) {
	g := benchXMark(b).G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.BuildAK(g, 2)
	}
}

// BenchmarkConstruction1Index measures full-bisimulation construction.
func BenchmarkConstruction1Index(b *testing.B) {
	g := benchXMark(b).G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build1Index(g)
	}
}

// BenchmarkConstructionDK measures load-tuned D(k) construction
// (Algorithms 1+2).
func BenchmarkConstructionDK(b *testing.B) {
	ds := benchXMark(b)
	reqs := ds.W.Requirements()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(ds.G, reqs)
	}
}

// BenchmarkQueryDK measures one whole query-load evaluation on the tuned
// D(k)-index (no validation needed).
func BenchmarkQueryDK(b *testing.B) {
	ds := benchXMark(b)
	dk := core.Build(ds.G, ds.W.Requirements())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range ds.W.Queries {
			eval.Index(dk.IG, q)
		}
	}
}

// BenchmarkQueryLabelSplitValidated measures the same load on the coarsest
// index, where validation dominates.
func BenchmarkQueryLabelSplitValidated(b *testing.B) {
	ds := benchXMark(b)
	ig := index.BuildLabelSplit(ds.G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range ds.W.Queries {
			eval.Index(ig, q)
		}
	}
}

// BenchmarkEdgeUpdateDK measures single D(k) edge updates (Algorithms 4+5
// for additions, the deletion primitive for removals), alternating add and
// remove over an edge pool so every iteration performs a real state change.
func BenchmarkEdgeUpdateDK(b *testing.B) {
	ds := benchXMark(b)
	edges, err := ds.RandomEdges(1000, 3)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.G.Clone()
	dk := core.Build(g, ds.W.Requirements())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[(i/2)%len(edges)]
		if i%2 == 0 {
			dk.AddEdge(e[0], e[1])
		} else {
			dk.RemoveEdge(e[0], e[1])
		}
	}
}

// BenchmarkEdgeUpdateAK2 measures single A(2) propagate-style edge
// additions. The paired raw removal restores the data graph so every
// addition is a real change; the index reaches a refined steady state after
// the first pool pass, which is the realistic long-run regime.
func BenchmarkEdgeUpdateAK2(b *testing.B) {
	ds := benchXMark(b)
	edges, err := ds.RandomEdges(1000, 3)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.G.Clone()
	ig := index.BuildAK(g, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[(i/2)%len(edges)]
		if i%2 == 0 {
			index.AKEdgeUpdate(ig, 2, e[0], e[1])
		} else {
			ig.RemoveDataEdge(e[0], e[1])
		}
	}
}

// BenchmarkSubgraphAddition measures Algorithm 3 the way a commit runs it:
// a copy-on-write clone of the tuned XMark index, and one auction fragment (a
// person, an item or an open auction, the benchmark's document pool) grafted
// onto it. B/op is what a document costs beyond the pages it writes.
func BenchmarkSubgraphAddition(b *testing.B) {
	ds := benchXMark(b)
	base := core.Build(ds.G.Clone(), ds.W.Requirements())
	docs := make([]*graph.Graph, 3)
	for i := range docs {
		h, _, err := xmlgraph.Load(bytes.NewReader(auctionFragment(b, i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = h
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Clone().AddSubgraph(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlg4 measures the value of Algorithm 4's similarity
// probe: the same 100-edge batch applied with the probe vs with a naive
// reset-to-zero, comparing post-update query cost.
func BenchmarkAblationAlg4(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.AblationAlg4(ds, experiments.AfterUpdateConfig{Edges: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			if err := experiments.RenderAlg4Ablation(&sb, "Algorithm 4 ablation (Xmark)", a); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
			b.ReportMetric(a.WithProbe.AvgCost, "probe_cost")
			b.ReportMetric(a.Naive.AvgCost, "naive_cost")
		}
	}
}

// BenchmarkFamilyComparison builds the entire summary family (label split,
// A(1..4), D(k), 1-index, F&B) and measures path and branching loads on
// each — the size/precision spectrum around the D(k)-index.
func BenchmarkFamilyComparison(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FamilyComparison(ds, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			if err := experiments.RenderFamily(&sb, "Index family (Xmark)", rows); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
			for _, r := range rows {
				if r.Index == "F&B" {
					b.ReportMetric(float64(r.Size), "fb_size")
				}
				if r.Index == "1-index" {
					b.ReportMetric(float64(r.Size), "oneindex_size")
				}
			}
		}
	}
}

// BenchmarkConstructionFB measures F&B-index construction (alternating
// forward/backward refinement to a joint fixpoint).
func BenchmarkConstructionFB(b *testing.B) {
	g := benchXMark(b).G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.BuildFB(g)
	}
}

// BenchmarkPromoteLabel measures restoring one workload label's similarity
// after a decay batch (the maintenance unit of Section 5.3).
func BenchmarkPromoteLabel(b *testing.B) {
	ds := benchXMark(b)
	edges, err := ds.RandomEdges(100, 3)
	if err != nil {
		b.Fatal(err)
	}
	reqs := ds.W.Requirements()
	labels := reqs.SortedLabels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := ds.G.Clone()
		dk := core.Build(g, reqs)
		for _, e := range edges {
			dk.AddEdge(e[0], e[1])
		}
		l := labels[i%len(labels)]
		b.StartTimer()
		dk.PromoteLabel(l, reqs[l])
	}
}

// BenchmarkDemote measures shrinking a tuned index to half requirements via
// the quotient construction (Theorem 2).
func BenchmarkDemote(b *testing.B) {
	ds := benchXMark(b)
	reqs := ds.W.Requirements()
	lo := make(core.Requirements)
	for l, k := range reqs {
		lo[l] = k / 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dk := core.Build(ds.G, reqs)
		b.StartTimer()
		dk.Demote(lo)
	}
}

// BenchmarkCodecSave and BenchmarkCodecLoad measure index persistence.
func BenchmarkCodecSave(b *testing.B) {
	ds := benchXMark(b)
	dk := core.Build(ds.G, ds.W.Requirements())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := codec.SaveDK(&buf, dk); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkCodecLoad(b *testing.B) {
	ds := benchXMark(b)
	dk := core.Build(ds.G, ds.W.Requirements())
	var buf bytes.Buffer
	if err := codec.SaveDK(&buf, dk); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.LoadDK(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryRPE measures a regular-path-expression evaluation with a
// descendant axis on the tuned D(k)-index.
func BenchmarkQueryRPE(b *testing.B) {
	ds := benchXMark(b)
	dk := core.Build(ds.G, ds.W.Requirements())
	c := rpe.CompileExpr(rpe.MustParse("open_auction.itemref//name"), ds.G.Labels())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.IndexRPE(dk.IG, c)
	}
}

// BenchmarkQueryTwig measures a branching query on the F&B index (no
// validation) vs implicit validation on D(k) (see BenchmarkQueryTwigDK).
func BenchmarkQueryTwigFB(b *testing.B) {
	ds := benchXMark(b)
	fb := index.BuildFB(ds.G)
	tw, err := eval.ParseTwig(ds.G.Labels(), "item[mailbox].name")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.IndexTwig(fb, tw)
	}
}

func BenchmarkQueryTwigDK(b *testing.B) {
	ds := benchXMark(b)
	dk := core.Build(ds.G, ds.W.Requirements())
	tw, err := eval.ParseTwig(ds.G.Labels(), "item[mailbox].name")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.IndexTwig(dk.IG, tw)
	}
}

// BenchmarkQueryThroughput is the canonical hot-path benchmark: a mixed
// path/RPE/twig load over the tuned XMark D(k)-index, driven from all CPUs
// via RunParallel the way dkserve drives it under concurrent traffic. Future
// PRs quote this number; run with -benchmem to watch allocation churn too
// (`make bench-guard` holds its B/op and allocs/op to the recorded baseline).
//
// Query fast-path overhaul (DK_BENCH_SCALE=1.0, -benchtime 2s, same machine):
//
//	before: 3526880 ns/op   901201 B/op   19412 allocs/op
//	after:  1144431 ns/op   204416 B/op   16595 allocs/op   (3.1x)
func BenchmarkQueryThroughput(b *testing.B) {
	ds := benchXMark(b)
	dk := core.Build(ds.G, ds.W.Requirements())
	rpes := []*rpe.Compiled{
		rpe.CompileExpr(rpe.MustParse("open_auction.itemref//name"), ds.G.Labels()),
		rpe.CompileExpr(rpe.MustParse("person.name|item.name"), ds.G.Labels()),
	}
	twigSrcs := []string{"item[mailbox].name", "person[name].emailaddress"}
	var twigs []*eval.Twig
	for _, s := range twigSrcs {
		tw, err := eval.ParseTwig(ds.G.Labels(), s)
		if err != nil {
			b.Fatal(err)
		}
		twigs = append(twigs, tw)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			switch i % 4 {
			case 0, 1:
				eval.Index(dk.IG, ds.W.Queries[i%len(ds.W.Queries)])
			case 2:
				eval.IndexRPE(dk.IG, rpes[(i/4)%len(rpes)])
			default:
				eval.IndexTwig(dk.IG, twigs[(i/4)%len(twigs)])
			}
			i++
		}
	})
}

// BenchmarkQueryThroughputInstrumented runs the identical mixed load with the
// full observability stack attached the way the facade wires it — per-kind
// counters and histograms, cost sampling, and 1-in-64 query tracing (the
// dkserve default). The gap to BenchmarkQueryThroughput is the
// instrumentation overhead. Machine noise exceeds the effect in single runs,
// so compare per-run minimums across repetitions (-count 10): recorded when
// it landed as 1.13 -> 1.15 ms/op (~2%), identical B/op and allocs/op.
func BenchmarkQueryThroughputInstrumented(b *testing.B) {
	ds := benchXMark(b)
	dk := core.Build(ds.G, ds.W.Requirements())
	o := obs.NewObserverWith(obs.NewRegistry(), obs.NewStream(256), obs.NewTracer(64, 32))
	rpes := []*rpe.Compiled{
		rpe.CompileExpr(rpe.MustParse("open_auction.itemref//name"), ds.G.Labels()),
		rpe.CompileExpr(rpe.MustParse("person.name|item.name"), ds.G.Labels()),
	}
	twigSrcs := []string{"item[mailbox].name", "person[name].emailaddress"}
	var twigs []*eval.Twig
	for _, s := range twigSrcs {
		tw, err := eval.ParseTwig(ds.G.Labels(), s)
		if err != nil {
			b.Fatal(err)
		}
		twigs = append(twigs, tw)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			var (
				kind string
				res  []graph.NodeID
				cost eval.Cost
				tr   *obs.Trace
			)
			begin := time.Now()
			switch i % 4 {
			case 0, 1:
				kind = "path"
				tr = o.SampleTrace(kind, "bench-path")
				res, cost = eval.IndexTraced(dk.IG, ds.W.Queries[i%len(ds.W.Queries)], tr)
			case 2:
				kind = "rpe"
				tr = o.SampleTrace(kind, "bench-rpe")
				res, cost = eval.IndexRPETraced(dk.IG, rpes[(i/4)%len(rpes)], tr)
			default:
				kind = "twig"
				tr = o.SampleTrace(kind, "bench-twig")
				res, cost = eval.IndexTwigTraced(dk.IG, twigs[(i/4)%len(twigs)], tr)
			}
			o.ObserveQuery(kind, time.Since(begin), obs.CostSample{
				IndexNodesVisited:  cost.IndexNodesVisited,
				DataNodesValidated: cost.DataNodesValidated,
				Validations:        cost.Validations,
			}, len(res))
			o.FinishTrace(tr)
			i++
		}
	})
}

// benchSnapshotFacade builds the served-index facade over the tuned XMark
// D(k)-index plus the mixed request set the snapshot benchmarks share, and
// warms the result cache so the measured regime is the steady state dkserve
// reaches under repeated traffic.
func benchSnapshotFacade(b *testing.B) (*Index, []Request) {
	b.Helper()
	ds := benchXMark(b)
	idx := newIndex(core.Build(ds.G, ds.W.Requirements()))
	labels := ds.G.Labels()
	reqs := make([]Request, 0, len(ds.W.Queries)+4)
	for _, q := range ds.W.Queries {
		reqs = append(reqs, Request{Kind: KindPath, Text: q.Format(labels)})
	}
	reqs = append(reqs,
		Request{Kind: KindRPE, Text: "open_auction.itemref//name"},
		Request{Kind: KindRPE, Text: "person.name|item.name"},
		Request{Kind: KindTwig, Text: "item[mailbox].name"},
		Request{Kind: KindTwig, Text: "person[name].emailaddress"},
	)
	for _, r := range reqs {
		if _, err := idx.Run(r); err != nil {
			b.Fatalf("%s %q: %v", r.Kind, r.Text, err)
		}
	}
	return idx, reqs
}

// BenchmarkSnapshotQuerySerial drives the facade's Run hot path — snapshot
// resolution, generation-keyed result cache, stat copy-out — one request at
// a time. The pair with BenchmarkSnapshotQueryParallel is the PR 3 headline:
// queries take no lock, so the parallel variant should approach a per-core
// multiple of this one on multicore hardware (unmeasured: on a single-core
// container the two converge).
func BenchmarkSnapshotQuerySerial(b *testing.B) {
	idx, reqs := benchSnapshotFacade(b)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		res, err := idx.Run(reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheHit {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "cache_hit_rate")
}

// BenchmarkSnapshotQueryParallel is the same mixed load from all CPUs at
// once, the way dkserve's handlers call Run under concurrent traffic.
func BenchmarkSnapshotQueryParallel(b *testing.B) {
	idx, reqs := benchSnapshotFacade(b)
	b.ResetTimer()
	var hits atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i, h := 0, int64(0)
		for pb.Next() {
			res, err := idx.Run(reqs[i%len(reqs)])
			if err != nil {
				b.Error(err)
				return
			}
			if res.CacheHit {
				h++
			}
			i++
		}
		hits.Add(h)
	})
	b.ReportMetric(float64(hits.Load())/float64(b.N), "cache_hit_rate")
}

// BenchmarkApplyBatchPipeline drives the unified write path end to end in
// memory: each iteration pushes one 8-mutation batch (four reference-edge
// additions and their removals, so the graph returns to its starting state)
// through prepare, composite clone, group application and snapshot publish.
// No store is attached, so the number isolates the pipeline itself from
// filesystem noise — which is what makes it stable enough to sit in the
// bench-guard baseline alongside the read-path benchmarks (`dkbench -exp
// write` measures the same path with durability on).
func BenchmarkApplyBatchPipeline(b *testing.B) {
	ds := benchXMark(b)
	idx := FromGraph(ds.G.Clone(), nil)
	edges, err := ds.RandomEdges(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Mutation, 0, 2*len(edges))
	for _, e := range edges {
		batch = append(batch, Mutation{Op: MutAddEdge, From: e[0], To: e[1]})
	}
	for _, e := range edges {
		batch = append(batch, Mutation{Op: MutRemoveEdge, From: e[0], To: e[1]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acks, err := idx.ApplyBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range acks {
			if a.Err != nil {
				b.Fatal(a.Err)
			}
		}
	}
	b.ReportMetric(float64(len(batch)), "mutations/op")
}

// BenchmarkXMLLoad measures the XML-to-graph pipeline on the XMark document.
func BenchmarkXMLLoad(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkScale(benchScale()))
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := xmlgraph.Load(bytes.NewReader(data), datagen.LoadOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApexComparison runs the APEX-vs-D(k) comparison (related work §2).
func BenchmarkApexComparison(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ApexComparison(ds, 50, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			if err := experiments.RenderApexComparison(&sb, "APEX comparison (Xmark)", rows); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
			b.ReportMetric(float64(rows[0].UpdateElapsed.Microseconds())/1000, "dk_update_ms")
			b.ReportMetric(float64(rows[1].UpdateElapsed.Microseconds())/1000, "apex_rebuild_ms")
		}
	}
}

// BenchmarkDocInsertion measures absorbing five documents per method.
func BenchmarkDocInsertion(b *testing.B) {
	ds := benchXMark(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DocInsertion(ds, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			if err := experiments.RenderDocInsertion(&sb, "Document insertion (Xmark)", rows); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
		}
	}
}
