package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed `go test -bench` line. Metrics carries the
// per-iteration measurements keyed by unit (ns/op, B/op, allocs/op, plus any
// custom b.ReportMetric units).
type benchResult struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// benchReport is the JSON document -benchjson emits: the parsed benchmark
// lines plus the environment lines go test prints before them.
type benchReport struct {
	Goos    string        `json:"goos,omitempty"`
	Goarch  string        `json:"goarch,omitempty"`
	Pkg     string        `json:"pkg,omitempty"`
	CPU     string        `json:"cpu,omitempty"`
	Results []benchResult `json:"results"`
}

// parseBenchLine parses a single benchmark result line, e.g.
//
//	BenchmarkQueryThroughput-8  720  3526880 ns/op  901201 B/op  19412 allocs/op
//
// Returns ok=false for anything that is not a benchmark line.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	r := benchResult{Name: fields[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r.Iterations = iters
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// parseBenchReport reads `go test -bench` text into a report. Non-benchmark
// lines other than the goos/goarch/pkg/cpu preamble are ignored, so the input
// can be a full verbose test log.
func parseBenchReport(r io.Reader) (benchReport, error) {
	var rep benchReport
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if res, ok := parseBenchLine(line); ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("no benchmark result lines found in input")
	}
	return rep, nil
}

// benchToJSON converts `go test -bench` text on r into a JSON report on w.
func benchToJSON(r io.Reader, w io.Writer) error {
	rep, err := parseBenchReport(r)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// guardUnits are the per-iteration measurements benchGuard compares. Bytes
// and allocation counts repeat to a few percent on a shared host and are
// gated; times do not (an untouched commit has read +8..182% against its own
// baseline), so infoUnit is printed with its delta and never fails the guard.
var guardUnits = []string{"B/op", "allocs/op", infoUnit}

const infoUnit = "ns/op"

// maxRegressPct is how far the best current run of a gated unit may exceed
// the best baseline run, in percent.
const maxRegressPct = 10

// bestPerOp collapses repeated runs of each benchmark to the lowest value of
// one unit — the most noise-resistant summary a single machine gives
// (regressions raise the floor; scheduling noise only raises individual
// runs). Benchmarks that never reported the unit are absent.
func bestPerOp(rep benchReport, unit string) map[string]float64 {
	best := map[string]float64{}
	for _, r := range rep.Results {
		v, ok := r.Metrics[unit]
		if !ok {
			continue
		}
		if cur, seen := best[r.Name]; !seen || v < cur {
			best[r.Name] = v
		}
	}
	return best
}

// benchGuard compares `go test -bench` text on r against a recorded baseline
// JSON report. The baseline scopes the guard: every benchmark in it must have
// a result in the current run (one that failed or was renamed prints no line,
// and that is a failure naming it), and its lowest current B/op and allocs/op
// must not exceed the lowest baseline value by more than maxRegressPct
// percent. ns/op is printed beside them as an info row. Benchmarks only the
// current run has are ignored. Returns an error listing every failure; a
// baseline with no gated unit at all guards nothing and is an error too.
func benchGuard(baseline io.Reader, r io.Reader, w io.Writer) error {
	var base benchReport
	if err := json.NewDecoder(baseline).Decode(&base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	cur, err := parseBenchReport(r)
	if err != nil {
		return err
	}
	ran := map[string]bool{}
	for _, res := range cur.Results {
		ran[res.Name] = true
	}
	inBase := map[string]bool{}
	for _, res := range base.Results {
		inBase[res.Name] = true
	}
	var names, failures []string // names: the baseline's benchmarks that ran
	for name := range inBase {
		if ran[name] {
			names = append(names, name)
		} else {
			failures = append(failures, name+": in the baseline, no result line in the current run")
		}
	}
	sort.Strings(names)
	sort.Strings(failures)

	gated := 0
	for _, unit := range guardUnits {
		baseBest, curBest := bestPerOp(base, unit), bestPerOp(cur, unit)
		if unit != infoUnit {
			gated += len(baseBest)
		}
		for _, name := range names {
			b, ok := baseBest[name]
			if !ok {
				continue
			}
			c, ok := curBest[name]
			if !ok {
				if unit != infoUnit {
					failures = append(failures, fmt.Sprintf("%s: baseline has %s, the current run reports none", name, unit))
				}
				continue
			}
			delta := 0.0
			if c != b {
				delta = (c - b) / b * 100 // +Inf from a zero baseline is a regression
			}
			status := "ok"
			switch {
			case unit == infoUnit:
				status = "info"
			case delta > maxRegressPct:
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f %s (%+.1f%% > %d%%)", name, b, c, unit, delta, maxRegressPct))
			}
			fmt.Fprintf(w, "benchguard %-40s baseline %12.0f %-9s  current %12.0f %-9s  %+6.1f%%  %s\n",
				name, b, unit, c, unit, delta, status)
		}
	}
	if gated == 0 {
		return fmt.Errorf("baseline carries neither B/op nor allocs/op: it guards nothing (record it with -benchmem)")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failure(s), threshold %d%%:\n  %s", len(failures), maxRegressPct, strings.Join(failures, "\n  "))
	}
	return nil
}
