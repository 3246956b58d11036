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

func TestRunSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig4", "-scale", "0.02"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"Figure 4", "A(0)", "D(k)", "completed in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
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
// pass/fail threshold, scoping to benchmarks present in the baseline, and
// the missing-baseline skip path of the -benchguard flag.
func TestBenchGuard(t *testing.T) {
	baseline := `{"results": [
		{"name": "BenchmarkQueryThroughput", "iterations": 100, "metrics": {"ns/op": 1100000}},
		{"name": "BenchmarkQueryThroughput", "iterations": 100, "metrics": {"ns/op": 1000000}}
	]}`
	current := func(ns string) string {
		return "BenchmarkQueryThroughput-8 100 " + ns + " ns/op\n" +
			"BenchmarkUnguardedExtra-8 100 9999999 ns/op\nPASS\n"
	}

	var out strings.Builder
	// 5% above the baseline's best run: passes at the 10% threshold.
	if err := benchGuard(strings.NewReader(baseline), strings.NewReader(current("1050000")), &out, 10); err != nil {
		t.Errorf("5%% regression at 10%% threshold: %v", err)
	}
	if !strings.Contains(out.String(), "ok") || strings.Contains(out.String(), "Unguarded") {
		t.Errorf("guard output = %q", out.String())
	}
	// 20% above: fails, naming the benchmark.
	err := benchGuard(strings.NewReader(baseline), strings.NewReader(current("1200000")), &out, 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkQueryThroughput") {
		t.Errorf("20%% regression: err = %v", err)
	}
	// Repeated current runs collapse to the fastest: a slow outlier next to a
	// fast run passes.
	noisy := current("2000000") + "BenchmarkQueryThroughput-8 100 1010000 ns/op\n"
	if err := benchGuard(strings.NewReader(baseline), strings.NewReader(noisy), &out, 10); err != nil {
		t.Errorf("best-of-N: %v", err)
	}
	// Bytes are guarded like time: a B/op regression fails even when ns/op
	// improved, and a baseline without B/op guards time alone.
	memBase := `{"results": [
		{"name": "BenchmarkQueryRPE", "iterations": 100, "metrics": {"ns/op": 1000000, "B/op": 20000}},
		{"name": "BenchmarkQueryRPE", "iterations": 100, "metrics": {"ns/op": 1100000, "B/op": 20480}}
	]}`
	memCur := func(bytes string) string {
		return "BenchmarkQueryRPE-8 100 900000 ns/op " + bytes + " B/op 12 allocs/op\n"
	}
	if err := benchGuard(strings.NewReader(memBase), strings.NewReader(memCur("21000")), &out, 10); err != nil {
		t.Errorf("5%% B/op regression at 10%% threshold: %v", err)
	}
	err = benchGuard(strings.NewReader(memBase), strings.NewReader(memCur("30000")), &out, 10)
	if err == nil || !strings.Contains(err.Error(), "B/op") || strings.Contains(err.Error(), "ns/op") {
		t.Errorf("50%% B/op regression: err = %v", err)
	}
	if err := benchGuard(strings.NewReader(baseline), strings.NewReader(current("1000000")+
		"BenchmarkQueryThroughput-8 100 1000000 ns/op 999999 B/op\n"), &out, 10); err != nil {
		t.Errorf("baseline without B/op: %v", err)
	}
	// No shared benchmark is an error, not a silent pass.
	if err := benchGuard(strings.NewReader(baseline), strings.NewReader("BenchmarkOther-8 1 5 ns/op\n"), &out, 10); err == nil {
		t.Error("want error when baseline and current share no benchmark")
	}
	if err := benchGuard(strings.NewReader("not json"), strings.NewReader(current("1000000")), &out, 10); err == nil {
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
