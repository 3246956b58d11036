// Command dkbench reproduces the paper's evaluation (Section 6): counted
// cost — index nodes visited plus data nodes validated — against index size,
// before and after updates, plus the ablations around it. Each experiment id
// maps to one table or figure; experimentTable below is the one list of them,
// and `dkbench -h` prints it.
//
// Usage:
//
//	dkbench -exp all -scale 1.0 -edges 100 -seed 1
//
// Scale 1.0 matches the paper's dataset sizes (about 10 MB XMark / 15 MB
// NASA); smaller scales run faster with the same qualitative shape.
//
// Two more modes read `go test -bench` text on stdin instead of running an
// experiment: -benchjson parses it to JSON, -benchguard compares it with a
// recorded baseline (`make bench-baseline` / `make bench-guard`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dkindex/internal/experiments"
	"dkindex/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bail aborts the run; recovered at the top of run.
type bail struct{ err error }

// env is what an experiment runs against: the flags that shape it, the
// datasets (generated on first use, shared by every experiment of the run)
// and where its tables and CSV series go.
type env struct {
	stdout            io.Writer
	scale             float64
	edges, maxK       int
	seed              int64
	csvDir            string
	xmark, nasa, dblp *experiments.Dataset
}

func (e *env) cfg() experiments.AfterUpdateConfig {
	return experiments.AfterUpdateConfig{Edges: e.edges, MaxK: e.maxK, Seed: e.seed}
}

func (e *env) load(slot **experiments.Dataset, gen func(float64, int64) (*experiments.Dataset, error), scale float64) *experiments.Dataset {
	if *slot == nil {
		ds := must(gen(scale, e.seed))
		fmt.Fprintf(e.stdout, "dataset %s: %s, %d queries (max length %d)\n",
			ds.Name, ds.G.ComputeStats(), ds.W.Len(), ds.W.MaxLength())
		*slot = ds
	}
	return *slot
}

func (e *env) loadXMark() *experiments.Dataset {
	return e.load(&e.xmark, experiments.XMarkDataset, e.scale)
}

// The paper's NASA file is 1.5x its XMark file.
func (e *env) loadNasa() *experiments.Dataset {
	return e.load(&e.nasa, experiments.NasaDataset, e.scale*1.5)
}

func (e *env) loadDblp() *experiments.Dataset {
	return e.load(&e.dblp, experiments.DblpDataset, e.scale)
}

// writeCSV writes one series under -csv; a no-op without the flag.
func (e *env) writeCSV(name string, f func(w io.Writer) error) {
	if e.csvDir == "" {
		return
	}
	fp, err := os.Create(filepath.Join(e.csvDir, name))
	if err == nil {
		err = f(fp)
		if cerr := fp.Close(); err == nil {
			err = cerr
		}
	}
	check(err)
}

// evalPoints renders one of Figures 4-7 and writes its CSV series.
func (e *env) evalPoints(id, title string, points []experiments.EvalPoint) {
	check(experiments.RenderEvalPoints(e.stdout, title, points))
	e.writeCSV(id+".csv", func(w io.Writer) error { return experiments.WriteEvalPointsCSV(w, points) })
}

// experimentTable is the one list of experiment ids: the -exp usage text,
// the members of "all" (run in this order), what an id runs and the ids an
// unknown one is answered with all come from it.
var experimentTable = []struct {
	id, blurb string
	inAll     bool
	run       func(e *env)
}{
	{"fig4", "Figure 4: evaluation cost vs index size, XMark, before updates", true, func(e *env) {
		e.evalPoints("fig4", "Figure 4: evaluation performance, Xmark, before updating",
			must(experiments.EvaluationBeforeUpdate(e.loadXMark(), e.maxK)))
	}},
	{"fig5", "Figure 5: evaluation cost vs index size, NASA, before updates", true, func(e *env) {
		e.evalPoints("fig5", "Figure 5: evaluation performance, Nasa, before updating",
			must(experiments.EvaluationBeforeUpdate(e.loadNasa(), e.maxK)))
	}},
	{"tab1", "Table 1: update efficiency, -edges edge additions, A(1)..A(4) vs D(k)", true, func(e *env) {
		for _, ds := range []*experiments.Dataset{e.loadXMark(), e.loadNasa()} {
			rows := must(experiments.UpdateEfficiency(ds, e.cfg()))
			check(experiments.RenderUpdateRows(e.stdout,
				fmt.Sprintf("Table 1 (%s): running time of %d edge additions", ds.Name, e.edges), rows))
			e.writeCSV("tab1_"+strings.ToLower(ds.Name)+".csv",
				func(w io.Writer) error { return experiments.WriteUpdateRowsCSV(w, rows) })
		}
	}},
	{"fig6", "Figure 6: evaluation cost vs index size, XMark, after -edges edge additions", true, func(e *env) {
		e.evalPoints("fig6", fmt.Sprintf("Figure 6: evaluation performance, Xmark, after %d edge additions", e.edges),
			must(experiments.EvaluationAfterUpdate(e.loadXMark(), e.cfg())))
	}},
	{"fig7", "Figure 7: evaluation cost vs index size, NASA, after -edges edge additions", true, func(e *env) {
		e.evalPoints("fig7", fmt.Sprintf("Figure 7: evaluation performance, Nasa, after %d edge additions", e.edges),
			must(experiments.EvaluationAfterUpdate(e.loadNasa(), e.cfg())))
	}},
	{"ablation", "D(k) decay under updates and recovery via promotion", true, func(e *env) {
		check(experiments.RenderPromoteAblation(e.stdout,
			"Ablation (Xmark): D(k) decay under updates and recovery via promotion",
			must(experiments.AblationPromote(e.loadXMark(), e.cfg()))))
	}},
	{"apex", "the APEX workload-aware competitor: cost and update handling", true, func(e *env) {
		check(experiments.RenderApexComparison(e.stdout,
			"APEX comparison (Xmark): workload-aware competitor, update handling",
			must(experiments.ApexComparison(e.loadXMark(), e.edges, e.seed))))
	}},
	{"docinsert", "incremental document insertion vs baseline vs rebuild", true, func(e *env) {
		check(experiments.RenderDocInsertion(e.stdout,
			"Document insertion (Xmark): 5 documents, incremental vs baseline vs rebuild",
			must(experiments.DocInsertion(e.loadXMark(), 5, e.seed))))
	}},
	{"miner", "longest-query rule vs budget-aware load mining; builds hundreds of candidate indexes", false, func(e *env) {
		check(experiments.RenderMinerAblation(e.stdout,
			"Ablation (Xmark): longest-query rule vs budget-aware load mining",
			must(experiments.AblationMiner(e.loadXMark()))))
	}},
	{"family", "full summary family (label-split..F&B) on path and twig loads", true, func(e *env) {
		check(experiments.RenderFamily(e.stdout,
			"Index family comparison (Xmark): sizes and path/twig costs",
			must(experiments.FamilyComparison(e.loadXMark(), e.maxK))))
	}},
	{"alg4", "Algorithm 4 probe vs naive reset on edge addition", true, func(e *env) {
		check(experiments.RenderAlg4Ablation(e.stdout,
			"Ablation (Xmark): Algorithm 4 probe vs naive reset on edge addition",
			must(experiments.AblationAlg4(e.loadXMark(), e.cfg()))))
	}},
	{"mem", "set footprint: succinct extents/postings vs raw slices, all datasets", true, func(e *env) {
		for _, ds := range []*experiments.Dataset{e.loadXMark(), e.loadNasa(), e.loadDblp()} {
			rows := experiments.MemoryFootprint(ds, e.maxK)
			check(experiments.RenderMemRows(e.stdout,
				fmt.Sprintf("Memory footprint (%s): succinct extents and postings vs raw node slices", ds.Name), rows))
			e.writeCSV(fmt.Sprintf("mem_%s.csv", ds.Name),
				func(w io.Writer) error { return experiments.WriteMemRowsCSV(w, rows) })
		}
	}},
	{"build", "construction cost: 1-index / A(k) / D(k) build times and counters", true, func(e *env) {
		check(experiments.RenderBuildCost(e.stdout,
			"Construction cost (Xmark): 1-index, A(k), load-tuned D(k)",
			experiments.ConstructionCost(e.loadXMark(), e.maxK)))
		check(experiments.RenderBuildCost(e.stdout,
			"Construction cost (NASA): 1-index, A(k), load-tuned D(k)",
			experiments.ConstructionCost(e.loadNasa(), e.maxK)))
	}},
}

// expUsage is the -exp flag's usage text: one line per id.
func expUsage() string {
	var b strings.Builder
	b.WriteString("experiment `id`:\n")
	for _, x := range experimentTable {
		blurb := x.blurb
		if !x.inAll {
			blurb += ` (not part of "all")`
		}
		fmt.Fprintf(&b, "  %-10s %s\n", x.id, blurb)
	}
	fmt.Fprintf(&b, "  %-10s every id above not marked otherwise, in that order", "all")
	return b.String()
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{stdout: stdout}
	exp := fs.String("exp", "all", expUsage())
	fs.Float64Var(&e.scale, "scale", 1.0, "dataset scale (1.0 = paper size)")
	fs.IntVar(&e.edges, "edges", 100, "edge additions for tab1/fig6/fig7/ablation")
	fs.Int64Var(&e.seed, "seed", 1, "random seed for workloads and edges")
	fs.IntVar(&e.maxK, "maxk", 0, "largest A(k) in the series (0 = longest query length)")
	fs.StringVar(&e.csvDir, "csv", "", "also write each series as CSV files under this directory")
	metrics := fs.String("metrics", "", "write a Prometheus text snapshot of the run's metrics to this file")
	benchjson := fs.Bool("benchjson", false, "read `go test -bench` text on stdin, write a JSON report on stdout, and exit")
	benchguard := fs.String("benchguard", "", "baseline JSON `file`: read go test -bench text on stdin, fail if a benchmark in the baseline did not run or regressed in B/op or allocs/op, and exit")
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
		if err := benchGuard(f, os.Stdin, stdout); err != nil {
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

	if e.csvDir != "" {
		if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "dkbench: %v\n", err)
			return 1
		}
	}
	// Every experiment feeds the run's metrics registry, so -metrics leaves a
	// machine-readable record of what ran and how long it took alongside the
	// rendered tables.
	reg := obs.NewRegistry()
	expSeconds := obs.ExpBuckets(0.1, 2, 14)
	ran := false
	for _, x := range experimentTable {
		if *exp != x.id && !(*exp == "all" && x.inAll) {
			continue
		}
		ran = true
		start := time.Now()
		x.run(e)
		elapsed := time.Since(start)
		reg.Counter("dkbench_experiments_total", "Experiments executed, by id.",
			obs.L("id", x.id)).Inc()
		reg.Histogram("dkbench_experiment_seconds", "Wall time per experiment run.",
			expSeconds, obs.L("id", x.id)).Observe(elapsed.Seconds())
		fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", x.id, elapsed.Seconds())
	}
	if !ran {
		ids := make([]string, 0, len(experimentTable)+1)
		for _, x := range experimentTable {
			ids = append(ids, x.id)
		}
		fmt.Fprintf(stderr, "dkbench: unknown experiment %q; valid ids: %s\n", *exp, strings.Join(append(ids, "all"), ", "))
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
