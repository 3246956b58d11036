package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dkindex"
	"dkindex/internal/obs"
)

// goldenMetrics is the /v1/metrics body of expositionSession, with every
// time-valued sample masked.
const goldenMetrics = "testdata/metrics.golden"

// expositionSession drives one fixed scripted session through the server
// over a store-managed index, with runtime telemetry registered, and returns
// the /v1/metrics body it ends with.
func expositionSession(t *testing.T) []byte {
	t.Helper()
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	idx.Observe(o)
	st, err := dkindex.CreateStore(filepath.Join(t.TempDir(), "store"), idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(idx)
	rt := obs.NewRuntime(o)

	steps := []struct {
		method, target, body string
		code                 int
	}{
		{"GET", "/v1/query?q=director.movie.title", "", 200},
		{"GET", "/v1/query?q=director.movie.title", "", 200},
		{"GET", "/v1/query?kind=rpe&q=director%2F%2Ftitle", "", 200},
		{"GET", "/v1/query?kind=rpe&q=director%2F%2Ftitle", "", 200},
		{"GET", "/v1/query?kind=twig&q=movie%5Btitle%5D", "", 200},
		{"GET", "/v1/query?kind=twig&q=movie%5Btitle%5D", "", 200},
		{"GET", "/v1/query?q=a..b", "", 400},
		{"POST", "/v1/mutate", `{"mutations":[{"op":"add_edge","from":1,"to":2},{"op":"add_edge","from":3,"to":4}]}`, 200},
		{"POST", "/v1/mutate", `{"op":"set_requirements","reqs":{"title":2}}`, 200},
		{"POST", "/v1/documents", `<movieDB><director><name/><movie><title/></movie></director></movieDB>`, 200},
		{"GET", "/v1/query?q=director.movie.title", "", 200},
		{"GET", "/nosuch", "", 404},
	}
	for _, s := range steps {
		if code, out := fetch(t, srv, s.method, s.target, s.body); code != s.code {
			t.Fatalf("%s %s = %d %s, want %d", s.method, s.target, code, out, s.code)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Shed one request: hold the only in-flight slot while it arrives.
	srv.SetMaxInFlight(1)
	srv.inflight <- struct{}{}
	if code, out := fetch(t, srv, "GET", "/v1/stats", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /v1/stats = %d %s, want 503", code, out)
	}
	<-srv.inflight
	srv.SetMaxInFlight(0)

	rt.Collect()
	code, body := fetch(t, srv, "GET", "/v1/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d", code)
	}
	return maskTimes(body)
}

// maskTimes replaces the value of every time-valued sample — the buckets and
// sums of the seconds histograms, the seconds gauges and every dk_runtime_*
// series — so that what is left is deterministic.
func maskTimes(body []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			out.WriteString(line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum")
		if strings.HasPrefix(name, "dk_runtime_") || strings.HasSuffix(base, "_seconds") {
			line = line[:strings.LastIndexByte(line, ' ')+1] + "<time>\n"
		}
		out.WriteString(line)
	}
	return out.Bytes()
}

// TestMetricsExpositionUnchanged holds /v1/metrics to the recorded golden:
// every family, series, label, help string and bucket bound, and every value
// that does not measure time, byte for byte.
func TestMetricsExpositionUnchanged(t *testing.T) {
	want, err := os.ReadFile(goldenMetrics)
	if err != nil {
		t.Fatal(err)
	}
	got := expositionSession(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("/v1/metrics differs from %s at line %d:\n got %q\nwant %q", goldenMetrics, i+1, g, w)
		}
	}
}
