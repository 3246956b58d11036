package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dkindex/internal/obs"
)

// TestRunSingleExperiment walks the experiment table: every id that is part
// of "all" runs alone at a small scale and reports its completion (miner
// stays out here for the reason it stays out of "all").
func TestRunSingleExperiment(t *testing.T) {
	for _, x := range experimentTable {
		if !x.inAll {
			continue
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-exp", x.id, "-scale", "0.02"}, &out, &errb); code != 0 {
			t.Fatalf("-exp %s: exit %d: %s", x.id, code, errb.String())
		}
		want := []string{"[" + x.id + " completed in"}
		if x.id == "fig4" {
			want = append(want, "Figure 4", "A(0)", "D(k)")
		}
		for _, w := range want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("-exp %s: output missing %q:\n%s", x.id, w, out.String())
			}
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig4", "-scale", "0.02", "-csv", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
}

// TestRunMetricsSnapshot checks -metrics leaves a valid Prometheus text
// record of the experiments that ran.
func TestRunMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig4", "-scale", "0.02", "-metrics", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheusText(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot unparsable: %v\n%s", err, data)
	}
	f := fams["dkbench_experiments_total"]
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 1 || f.Samples[0].Labels["id"] != "fig4" {
		t.Errorf("experiment counter = %+v", f)
	}
	if fams["dkbench_experiment_seconds"] == nil {
		t.Errorf("duration histogram missing:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &out, &errb); code != 2 {
		t.Errorf("unknown experiment exit = %d, want 2", code)
	}
	// The refusal names every id there is, and -h lists the same ones.
	var usage bytes.Buffer
	run([]string{"-h"}, &out, &usage)
	for _, x := range experimentTable {
		if !strings.Contains(errb.String(), " "+x.id+",") {
			t.Errorf("unknown-experiment error does not name %q: %s", x.id, errb.String())
		}
		if !strings.Contains(usage.String(), "  "+x.id+" ") {
			t.Errorf("-h does not list %q:\n%s", x.id, usage.String())
		}
	}
	if !strings.HasSuffix(errb.String(), ", all\n") {
		t.Errorf("unknown-experiment error does not end with all: %s", errb.String())
	}
	if code := run([]string{"-badflag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	// A regular file in the way makes MkdirAll fail regardless of privilege.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-exp", "fig4", "-scale", "0.01", "-csv", filepath.Join(blocker, "sub")}, &out, &errb); code != 1 {
		t.Errorf("bad csv dir exit = %d, want 1", code)
	}
}

func TestBenchJSON(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: dkindex
cpu: some cpu model
BenchmarkQueryThroughput-8   	     720	   3526880 ns/op	  901201 B/op	   19412 allocs/op
PASS
ok  	dkindex	5.1s
`
	var out strings.Builder
	if err := benchToJSON(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Pkg != "dkindex" || len(rep.Results) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkQueryThroughput" || r.Procs != 8 || r.Iterations != 720 {
		t.Errorf("result = %+v", r)
	}
	if r.Metrics["ns/op"] != 3526880 || r.Metrics["allocs/op"] != 19412 {
		t.Errorf("metrics = %v", r.Metrics)
	}
	if err := benchToJSON(strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Error("want error for input without benchmark lines")
	}
}

// TestBenchGuard exercises the regression guard: best-of-N collapsing, the
// pass/fail threshold on the gated units, ns/op as an info row, scoping to
// the baseline (whose every benchmark must have run), and the
// missing-baseline skip path of the -benchguard flag.
func TestBenchGuard(t *testing.T) {
	baseline := `{"results": [
		{"name": "BenchmarkQueryRPE", "iterations": 100, "metrics": {"ns/op": 1000000, "B/op": 20000, "allocs/op": 100}},
		{"name": "BenchmarkQueryRPE", "iterations": 100, "metrics": {"ns/op": 1100000, "B/op": 20480, "allocs/op": 101}}
	]}`
	current := func(ns, bytes, allocs string) string {
		return "BenchmarkQueryRPE-8 100 " + ns + " ns/op " + bytes + " B/op " + allocs + " allocs/op\n" +
			"BenchmarkUnguardedExtra-8 100 9999999 ns/op 9999999 B/op 9999 allocs/op\nPASS\n"
	}
	guard := func(base, cur string) (string, error) {
		var out strings.Builder
		err := benchGuard(strings.NewReader(base), strings.NewReader(cur), &out)
		return out.String(), err
	}

	// 5% above the baseline's best run: passes at the 10% threshold. Extras
	// in the current run are ignored: the baseline scopes the guard.
	out, err := guard(baseline, current("1000000", "21000", "105"))
	if err != nil {
		t.Errorf("5%% regression at the 10%% threshold: %v", err)
	}
	if !strings.Contains(out, "ok") || strings.Contains(out, "Unguarded") {
		t.Errorf("guard output = %q", out)
	}
	// A B/op or allocs/op regression beyond it fails, naming benchmark and
	// unit, even when ns/op improved.
	for unit, cur := range map[string]string{
		"B/op":      current("900000", "30000", "100"),
		"allocs/op": current("900000", "20000", "150"),
	} {
		_, err := guard(baseline, cur)
		if err == nil || !strings.Contains(err.Error(), "BenchmarkQueryRPE") ||
			!strings.Contains(err.Error(), unit) || strings.Contains(err.Error(), "ns/op") {
			t.Errorf("50%% %s regression: err = %v", unit, err)
		}
	}
	// An ns/op regression of any size is printed as info and passes.
	out, err = guard(baseline, current("9000000", "20000", "100"))
	if err != nil {
		t.Errorf("ns/op regression failed the guard: %v", err)
	}
	if !strings.Contains(out, "+800.0%  info") {
		t.Errorf("ns/op row = %q, want an info row with its delta", out)
	}
	// Repeated current runs collapse to the lowest: an outlier next to a good
	// run passes.
	noisy := current("1000000", "40000", "100") + "BenchmarkQueryRPE-8 100 1000000 ns/op 20100 B/op 100 allocs/op\n"
	if _, err := guard(baseline, noisy); err != nil {
		t.Errorf("best-of-N: %v", err)
	}
	// A baseline benchmark with no line in the current run (it failed, or
	// was renamed) fails by name — also when nothing else is shared.
	two := strings.Replace(baseline, `]}`, `,
		{"name": "BenchmarkQueryTwigDK", "iterations": 100, "metrics": {"ns/op": 5, "B/op": 5, "allocs/op": 5}}]}`, 1)
	if _, err := guard(two, current("1000000", "20000", "100")); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkQueryTwigDK") || strings.Contains(err.Error(), "BenchmarkQueryRPE") {
		t.Errorf("baseline benchmark missing from the current run: err = %v", err)
	}
	if _, err := guard(baseline, "BenchmarkOther-8 1 5 ns/op\n"); err == nil || !strings.Contains(err.Error(), "BenchmarkQueryRPE") {
		t.Errorf("no shared benchmark: err = %v", err)
	}
	// So does a run that dropped -benchmem: the gated units must be there.
	if _, err := guard(baseline, "BenchmarkQueryRPE-8 100 1000000 ns/op\n"); err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Errorf("current run without B/op: err = %v", err)
	}
	// A baseline with no gated unit guards nothing: an error, not a pass.
	timeOnly := `{"results": [{"name": "BenchmarkQueryRPE", "iterations": 100, "metrics": {"ns/op": 1000000}}]}`
	if _, err := guard(timeOnly, current("1000000", "20000", "100")); err == nil || !strings.Contains(err.Error(), "neither") {
		t.Errorf("baseline without B/op or allocs/op: err = %v", err)
	}
	if _, err := guard("not json", current("1000000", "20000", "100")); err == nil {
		t.Error("want error for malformed baseline")
	}

	// The flag path: a missing baseline file skips with exit 0 and a notice.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-benchguard", filepath.Join(t.TempDir(), "nope.json")}, &stdout, &stderr); code != 0 {
		t.Errorf("missing baseline exit = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "skipping") {
		t.Errorf("missing baseline notice = %q", stderr.String())
	}
}
