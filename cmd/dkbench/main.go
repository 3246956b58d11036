// Command dkbench reproduces the paper's evaluation (Section 6). Each
// experiment id maps to one table or figure:
//
//	fig4      Evaluation cost vs index size, XMark, before updates
//	fig5      Evaluation cost vs index size, NASA, before updates
//	tab1      Update efficiency: 100 edge additions, A(1)..A(4) vs D(k)
//	fig6      Evaluation cost vs index size, XMark, after 100 edge additions
//	fig7      Evaluation cost vs index size, NASA, after 100 edge additions
//	ablation  D(k) decay under updates and recovery via promotion
//	alg4      Algorithm 4 probe vs naive reset on edge addition
//	build     construction cost: 1-index / A(k) / D(k) build times and counters
//	mem       set footprint: succinct extents/postings vs raw slices, all datasets
//	family    full summary family (label-split..F&B) on path and twig loads
//	docinsert incremental document insertion vs baseline vs rebuild
//	apex      the APEX workload-aware competitor: cost and update handling
//	miner     longest-query rule vs budget-aware load mining (not part of
//	          "all": it builds hundreds of candidate indexes)
//	serve     end-to-end serving latency: boots the HTTP server and drives it
//	          with the loadgen harness, closed and open loop, read-only and
//	          under concurrent edge mutations (not part of "all": wall-clock
//	          bound, writes BENCH_7.json via -serve-json)
//	write     write pipeline throughput on a durable store: fsync-per-op vs
//	          group-committed Apply under concurrent writers and readers
//	          (not part of "all": wall-clock bound, writes BENCH_8.json via
//	          -write-json)
//	repl      replicated serving: a durable primary plus one WAL-shipped read
//	          replica under write churn — combined read throughput vs primary
//	          alone and replica lag quantiles (not part of "all": wall-clock
//	          bound, writes BENCH_9.json via -repl-json)
//	shard     sharded scatter-gather: merged query throughput and durable
//	          write throughput at 1/2/4/8 shards vs the monolithic index,
//	          after a bit-identity audit on XMark, NASA and DBLP corpora
//	          (not part of "all": wall-clock bound, writes BENCH_10.json via
//	          -shard-json)
//	shard-audit  the shard experiment's bit-identity audit alone, XMark only
//	          — quick enough for CI
//	all       everything above
//
// Usage:
//
//	dkbench -exp all -scale 1.0 -edges 100 -seed 1
//
// Scale 1.0 matches the paper's dataset sizes (about 10 MB XMark / 15 MB
// NASA); smaller scales run faster with the same qualitative shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dkindex/internal/experiments"
	"dkindex/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bail aborts the run; recovered at the top of run.
type bail struct{ err error }

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment: fig4, fig5, tab1, fig6, fig7, ablation, alg4, build, mem, family, docinsert, apex, miner, serve, write, repl, all")
		scale      = fs.Float64("scale", 1.0, "dataset scale (1.0 = paper size)")
		edges      = fs.Int("edges", 100, "edge additions for tab1/fig6/fig7/ablation")
		seed       = fs.Int64("seed", 1, "random seed for workloads and edges")
		maxK       = fs.Int("maxk", 0, "largest A(k) in the series (0 = longest query length)")
		csv        = fs.String("csv", "", "also write each series as CSV files under this directory")
		metrics    = fs.String("metrics", "", "write a Prometheus text snapshot of the run's metrics to this file")
		benchjson  = fs.Bool("benchjson", false, "read `go test -bench` text on stdin, write a JSON report on stdout, and exit")
		benchguard = fs.String("benchguard", "", "read `go test -bench` text on stdin, fail if any benchmark in this baseline JSON `file` regressed beyond -maxregress, and exit")
		maxregress = fs.Float64("maxregress", 10, "benchguard failure threshold: max ns/op or B/op regression vs baseline, percent")

		serveDur    = fs.Duration("serve-dur", 3*time.Second, "serve: measured duration per scenario")
		serveWarmup = fs.Duration("serve-warmup", 500*time.Millisecond, "serve: unmeasured warmup per scenario")
		serveConc   = fs.Int("serve-conc", 8, "serve: closed-loop workers / open-loop outstanding bound")
		serveRate   = fs.Float64("serve-rate", 2000, "serve: open-loop arrival rate, requests per second")
		serveJSON   = fs.String("serve-json", "", "serve: write the latency report as JSON to this `file`")
		serveRecord = fs.String("serve-record", "", "serve: record the request plan as a JSONL trace to this `file`")
		serveReplay = fs.String("serve-replay", "", "serve: replay the request plan from this JSONL trace `file`")

		writeWriters = fs.Int("write-writers", 16, "write: concurrent writer goroutines")
		writeOps     = fs.Int("write-ops", 150, "write: mutations per writer per phase")
		writeBatch   = fs.Int("write-batch", 256, "write: MaxBatch for the group-committed phase")
		writeWindow  = fs.Duration("write-window", 2*time.Millisecond, "write: coalescing window for the group-committed phase (0 = natural group commit)")
		writeJSON    = fs.String("write-json", "", "write: write the throughput report as JSON to this `file`")

		replJSON = fs.String("repl-json", "", "repl: write the replicated-serving report as JSON to this `file` (load shape comes from the serve-* flags)")

		shardDocs  = fs.Int("shard-docs", 8, "shard: documents per corpus")
		shardScale = fs.Float64("shard-doc-scale", 0.05, "shard: datagen scale per document")
		shardJSON  = fs.String("shard-json", "", "shard: write the scatter-gather report as JSON to this `file` (duration/readers from the serve-* flags, writers from -write-writers)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *benchjson {
		if err := benchToJSON(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "dkbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *benchguard != "" {
		f, err := os.Open(*benchguard)
		if err != nil {
			// A missing baseline is not a regression: first runs (and fresh
			// clones that never recorded one) pass with a notice telling the
			// developer how to create it.
			fmt.Fprintf(stderr, "dkbench: benchguard: no baseline at %s (record one with `make bench-baseline`); skipping\n", *benchguard)
			return 0
		}
		defer f.Close()
		if err := benchGuard(f, os.Stdin, stdout, *maxregress); err != nil {
			fmt.Fprintf(stderr, "dkbench: benchguard: %v\n", err)
			return 1
		}
		return 0
	}
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(bail); ok {
				fmt.Fprintf(stderr, "dkbench: %v\n", b.err)
				code = 1
				return
			}
			panic(r)
		}
	}()

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fmt.Fprintf(stderr, "dkbench: %v\n", err)
			return 1
		}
	}
	writeCSV := func(name string, f func(w *os.File) error) {
		if *csv == "" {
			return
		}
		fp, err := os.Create(filepath.Join(*csv, name))
		if err == nil {
			err = f(fp)
			if cerr := fp.Close(); err == nil {
				err = cerr
			}
		}
		check(err)
	}

	describe := func(ds *experiments.Dataset) {
		fmt.Fprintf(stdout, "dataset %s: %s, %d queries (max length %d)\n",
			ds.Name, ds.G.ComputeStats(), ds.W.Len(), ds.W.MaxLength())
	}
	// Every experiment feeds the run's metrics registry, so -metrics leaves a
	// machine-readable record of what ran and how long it took alongside the
	// rendered tables.
	reg := obs.NewRegistry()
	expSeconds := obs.ExpBuckets(0.1, 2, 14)
	timed := func(id string, f func()) {
		start := time.Now()
		f()
		elapsed := time.Since(start)
		reg.Counter("dkbench_experiments_total", "Experiments executed, by id.",
			obs.L("id", id)).Inc()
		reg.Histogram("dkbench_experiment_seconds", "Wall time per experiment run.",
			expSeconds, obs.L("id", id)).Observe(elapsed.Seconds())
		fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", id, elapsed.Seconds())
	}
	run := func(id string) bool { return *exp == "all" || *exp == id }
	cfg := experiments.AfterUpdateConfig{Edges: *edges, MaxK: *maxK, Seed: *seed}

	var xmark, nasa, dblp *experiments.Dataset
	loadXMark := func() *experiments.Dataset {
		if xmark == nil {
			xmark = mustDataset(experiments.XMarkDataset(*scale, *seed))
			describe(xmark)
		}
		return xmark
	}
	loadNasa := func() *experiments.Dataset {
		if nasa == nil {
			// The paper's NASA file is 1.5x its XMark file.
			nasa = mustDataset(experiments.NasaDataset(*scale*1.5, *seed))
			describe(nasa)
		}
		return nasa
	}
	loadDblp := func() *experiments.Dataset {
		if dblp == nil {
			dblp = mustDataset(experiments.DblpDataset(*scale, *seed))
			describe(dblp)
		}
		return dblp
	}

	ran := false
	if run("fig4") {
		ran = true
		timed("fig4", func() {
			points := must(experiments.EvaluationBeforeUpdate(loadXMark(), *maxK))
			check(experiments.RenderEvalPoints(stdout,
				"Figure 4: evaluation performance, Xmark, before updating", points))
			writeCSV("fig4.csv", func(w *os.File) error { return experiments.WriteEvalPointsCSV(w, points) })
		})
	}
	if run("fig5") {
		ran = true
		timed("fig5", func() {
			points := must(experiments.EvaluationBeforeUpdate(loadNasa(), *maxK))
			check(experiments.RenderEvalPoints(stdout,
				"Figure 5: evaluation performance, Nasa, before updating", points))
			writeCSV("fig5.csv", func(w *os.File) error { return experiments.WriteEvalPointsCSV(w, points) })
		})
	}
	if run("tab1") {
		ran = true
		timed("tab1", func() {
			rows := must(experiments.UpdateEfficiency(loadXMark(), cfg))
			check(experiments.RenderUpdateRows(stdout,
				fmt.Sprintf("Table 1 (Xmark): running time of %d edge additions", *edges), rows))
			writeCSV("tab1_xmark.csv", func(w *os.File) error { return experiments.WriteUpdateRowsCSV(w, rows) })
			rows = must(experiments.UpdateEfficiency(loadNasa(), cfg))
			check(experiments.RenderUpdateRows(stdout,
				fmt.Sprintf("Table 1 (Nasa): running time of %d edge additions", *edges), rows))
			writeCSV("tab1_nasa.csv", func(w *os.File) error { return experiments.WriteUpdateRowsCSV(w, rows) })
		})
	}
	if run("fig6") {
		ran = true
		timed("fig6", func() {
			points := must(experiments.EvaluationAfterUpdate(loadXMark(), cfg))
			check(experiments.RenderEvalPoints(stdout,
				fmt.Sprintf("Figure 6: evaluation performance, Xmark, after %d edge additions", *edges), points))
			writeCSV("fig6.csv", func(w *os.File) error { return experiments.WriteEvalPointsCSV(w, points) })
		})
	}
	if run("fig7") {
		ran = true
		timed("fig7", func() {
			points := must(experiments.EvaluationAfterUpdate(loadNasa(), cfg))
			check(experiments.RenderEvalPoints(stdout,
				fmt.Sprintf("Figure 7: evaluation performance, Nasa, after %d edge additions", *edges), points))
			writeCSV("fig7.csv", func(w *os.File) error { return experiments.WriteEvalPointsCSV(w, points) })
		})
	}
	if run("ablation") {
		ran = true
		timed("ablation", func() {
			a := must(experiments.AblationPromote(loadXMark(), cfg))
			check(experiments.RenderPromoteAblation(stdout,
				"Ablation (Xmark): D(k) decay under updates and recovery via promotion", a))
		})
	}
	if run("apex") {
		ran = true
		timed("apex", func() {
			rows := must(experiments.ApexComparison(loadXMark(), *edges, *seed))
			check(experiments.RenderApexComparison(stdout,
				"APEX comparison (Xmark): workload-aware competitor, update handling", rows))
		})
	}
	if run("docinsert") {
		ran = true
		timed("docinsert", func() {
			rows := must(experiments.DocInsertion(loadXMark(), 5, *seed))
			check(experiments.RenderDocInsertion(stdout,
				"Document insertion (Xmark): 5 documents, incremental vs baseline vs rebuild", rows))
		})
	}
	// The miner searches hundreds of candidate indexes, so it only runs when
	// asked for explicitly.
	if *exp == "miner" {
		ran = true
		timed("miner", func() {
			a := must(experiments.AblationMiner(loadXMark()))
			check(experiments.RenderMinerAblation(stdout,
				"Ablation (Xmark): longest-query rule vs budget-aware load mining", a))
		})
	}
	// The serve experiment is wall-clock bound (four scenarios of -serve-dur
	// each against a live HTTP server), so like miner it is opt-in only.
	if *exp == "serve" {
		ran = true
		timed("serve", func() {
			check(serveExperiment(stdout, loadXMark(), serveOptions{
				Duration:    *serveDur,
				Warmup:      *serveWarmup,
				Concurrency: *serveConc,
				Rate:        *serveRate,
				Seed:        *seed,
				JSONOut:     *serveJSON,
				RecordPath:  *serveRecord,
				ReplayPath:  *serveReplay,
			}))
		})
	}
	// The write experiment runs thousands of durable commits against a real
	// filesystem, so like serve it is opt-in only.
	if *exp == "write" {
		ran = true
		timed("write", func() {
			check(writeExperiment(stdout, loadXMark(), writeOptions{
				Writers: *writeWriters,
				Ops:     *writeOps,
				Batch:   *writeBatch,
				Window:  *writeWindow,
				Seed:    *seed,
				JSONOut: *writeJSON,
			}))
		})
	}
	// The repl experiment boots a primary and a live streaming replica, so
	// like serve and write it is wall-clock bound and opt-in only.
	if *exp == "repl" {
		ran = true
		timed("repl", func() {
			check(replExperiment(stdout, loadXMark(), replOptions{
				Duration:    *serveDur,
				Warmup:      *serveWarmup,
				Concurrency: *serveConc,
				Seed:        *seed,
				JSONOut:     *replJSON,
			}))
		})
	}
	// The shard experiment is wall-clock bound like serve/write/repl, so it
	// is opt-in only; shard-audit is its quick bit-identity check for CI.
	if *exp == "shard" || *exp == "shard-audit" {
		ran = true
		timed(*exp, func() {
			check(shardExperiment(stdout, shardOptions{
				Docs:      *shardDocs,
				DocScale:  *shardScale,
				Duration:  *serveDur,
				Readers:   *serveConc,
				Writers:   *writeWriters,
				Seed:      *seed,
				AuditOnly: *exp == "shard-audit",
				JSONOut:   *shardJSON,
			}))
		})
	}
	if run("family") {
		ran = true
		timed("family", func() {
			rows := must(experiments.FamilyComparison(loadXMark(), *maxK))
			check(experiments.RenderFamily(stdout,
				"Index family comparison (Xmark): sizes and path/twig costs", rows))
		})
	}
	if run("alg4") {
		ran = true
		timed("alg4", func() {
			a := must(experiments.AblationAlg4(loadXMark(), cfg))
			check(experiments.RenderAlg4Ablation(stdout,
				"Ablation (Xmark): Algorithm 4 probe vs naive reset on edge addition", a))
		})
	}
	if run("mem") {
		ran = true
		timed("mem", func() {
			for _, ds := range []*experiments.Dataset{loadXMark(), loadNasa(), loadDblp()} {
				rows := experiments.MemoryFootprint(ds, *maxK)
				check(experiments.RenderMemRows(stdout,
					fmt.Sprintf("Memory footprint (%s): succinct extents and postings vs raw node slices", ds.Name), rows))
				writeCSV(fmt.Sprintf("mem_%s.csv", ds.Name), func(w *os.File) error { return experiments.WriteMemRowsCSV(w, rows) })
			}
		})
	}
	if run("build") {
		ran = true
		timed("build", func() {
			check(experiments.RenderBuildCost(stdout,
				"Construction cost (Xmark): 1-index, A(k), load-tuned D(k)",
				experiments.ConstructionCost(loadXMark(), *maxK)))
			check(experiments.RenderBuildCost(stdout,
				"Construction cost (NASA): 1-index, A(k), load-tuned D(k)",
				experiments.ConstructionCost(loadNasa(), *maxK)))
		})
	}
	if !ran {
		fmt.Fprintf(stderr, "dkbench: unknown experiment %q\n", *exp)
		return 2
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err == nil {
			err = reg.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "dkbench: %v\n", err)
			return 1
		}
	}
	return 0
}

func mustDataset(ds *experiments.Dataset, err error) *experiments.Dataset {
	if err != nil {
		panic(bail{err})
	}
	return ds
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(bail{err})
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(bail{err})
	}
}
