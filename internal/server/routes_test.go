package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dkindex"
	"dkindex/internal/faultfs"
	"dkindex/internal/obs"
	"dkindex/internal/obs/promtest"
)

// requests reads one route's request counter.
func requests(s *Server, route string) uint64 {
	return obs.HTTPRequests.Counter(s.obs.Registry, route).Value()
}

// TestRouteTableIsTheSurface walks the route table: every row is mounted
// under /v1 and counted under its own label, nothing is mounted anywhere else
// — not the same path at the root, not the removed spellings — and the route
// label set on /v1/metrics is the table plus "other".
func TestRouteTableIsTheSurface(t *testing.T) {
	srv := New(goldenIndex(t))
	table := srv.routes()
	if len(table) != 15 {
		t.Errorf("%d routes, want 15", len(table))
	}
	labels := map[string]bool{"other": true}
	for _, rt := range table {
		what := fmt.Sprintf("%s %s", rt.method, rt.path)
		if !strings.HasPrefix(rt.path, "/v1/") {
			t.Errorf("%s is not under /v1", what)
		}
		labels[rt.path] = true
		if want := rt.path == "/v1/healthz" || rt.path == "/v1/readyz"; probeRoute(rt.path) != want {
			t.Errorf("%s: probeRoute = %v, want %v", what, !want, want)
		}

		before, other := requests(srv, rt.path), requests(srv, "other")
		rec := serveOnce(srv, rt.method, rt.path, "", "")
		// The mux's own 404 is plain text; the one 404 a handler writes
		// (a feed route on a server with no store) is a JSON envelope.
		if rec.Code == http.StatusNotFound && !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			t.Errorf("%s is not mounted", what)
		}
		if requests(srv, rt.path) != before+1 || requests(srv, "other") != other {
			t.Errorf("%s was not counted under its own route label", what)
		}

		// The same path at the root is gone.
		rec = serveOnce(srv, rt.method, strings.TrimPrefix(rt.path, "/v1"), "", "")
		if rec.Code != http.StatusNotFound || requests(srv, "other") != other+1 {
			t.Errorf("%s at the root = %d, want 404 under route=other", what, rec.Code)
		}
	}

	for _, gone := range []struct{ method, target, body string }{
		{"GET", "/query?path=director.movie.title", ""},
		{"POST", "/v1/edges", `{"from":1,"to":2}`},
		{"POST", "/v1/edges/remove", `{"from":1,"to":2}`},
		{"POST", "/v1/promote", `{"label":"title","k":2}`},
		{"POST", "/v1/demote", `{"reqs":{"title":1}}`},
		{"POST", "/v1/optimize", `{"budget":0}`},
	} {
		other := requests(srv, "other")
		rec := serveOnce(srv, gone.method, gone.target, gone.body, "")
		if rec.Code != http.StatusNotFound || requests(srv, "other") != other+1 {
			t.Errorf("%s %s = %d, want 404 under route=other", gone.method, gone.target, rec.Code)
		}
	}
	for _, p := range []string{"/healthz", "/readyz"} {
		if probeRoute(p) {
			t.Errorf("probeRoute still knows %s", p)
		}
	}

	_, body := fetch(t, srv, "GET", "/v1/metrics", "")
	fams, err := promtest.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, sm := range fams[obs.HTTPRequests.Name].Samples {
		got[sm.Labels["route"]] = true
	}
	if !reflect.DeepEqual(got, labels) {
		t.Errorf("route labels on /v1/metrics\n got %v\nwant %v", got, labels)
	}
}

// TestMutateBoundsSimilarity: a k or a reqs value outside 0..dkindex.MaxK is turned
// away at the door, single or inside a batch, before anything is applied —
// construction runs one refinement round per level under the writer mutex,
// so an unbounded k from the network would stall every write.
func TestMutateBoundsSimilarity(t *testing.T) {
	srv := New(goldenIndex(t))
	gen := srv.idx.Generation()
	for _, body := range []string{
		`{"op":"promote","label":"title","k":65}`,
		`{"op":"promote","label":"title","k":-1}`,
		`{"op":"promote","label":"title","k":2147483648}`,
		`{"op":"demote","reqs":{"title":1,"name":1000000}}`,
		`{"op":"set_requirements","reqs":{"title":-3}}`,
		`{"mutations":[{"op":"promote","label":"title","k":1},{"op":"set_requirements","reqs":{"name":1000000}}]}`,
		`{"mutations":[{"op":"demote","reqs":{"name":65}},{"op":"promote","label":"title","k":1}]}`,
	} {
		for _, target := range []string{"/v1/mutate", "/v1/mutate?ack=async"} {
			code, out := fetch(t, srv, "POST", target, body)
			var env struct{ Code, Error string }
			if err := json.Unmarshal(out, &env); err != nil {
				t.Fatalf("%s: %v in %s", body, err, out)
			}
			if code != http.StatusBadRequest || env.Code != codeBadRequest || !strings.Contains(env.Error, "0..64") {
				t.Errorf("%s %s = %d %s, want 400 bad_request naming the bound", target, body, code, out)
			}
		}
	}
	if got := srv.idx.Generation(); got != gen {
		t.Errorf("rejected requests moved the generation %d -> %d", gen, got)
	}
	// The bound itself is served.
	for _, body := range []string{
		fmt.Sprintf(`{"op":"promote","label":"title","k":%d}`, dkindex.MaxK),
		`{"mutations":[{"op":"set_requirements","reqs":{"title":0,"name":2}}]}`,
	} {
		if code, out := fetch(t, srv, "POST", "/v1/mutate", body); code != http.StatusOK {
			t.Errorf("%s = %d %s, want 200", body, code, out)
		}
	}
}

// TestFailedAppendIsTheServersFault: when the write-ahead log cannot take the
// record, the write answers 500 internal and is counted 5xx — a failing disk
// must not read as a stream of bad requests — nothing is published, and the
// retried request succeeds. Validation rejections stay 400.
func TestFailedAppendIsTheServersFault(t *testing.T) {
	fs := faultfs.New()
	idx := goldenIndex(t)
	st, err := dkindex.CreateStore("store", idx, &dkindex.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(idx)
	saved := func() []byte {
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	err5xx := func(route string) uint64 {
		return obs.HTTPErrors.Counter(srv.obs.Registry, route, "5xx").Value()
	}

	for _, tc := range []struct {
		name, target, body string
		// failed reads the error code off the failed response.
		failed func(out map[string]any) any
	}{
		{"single", "/v1/mutate", `{"op":"promote","label":"title","k":3}`,
			func(out map[string]any) any { return out["code"] }},
		{"batch", "/v1/mutate", `{"mutations":[{"op":"add_edge","from":1,"to":2},{"op":"promote","label":"nosuch","k":1}]}`,
			func(out map[string]any) any { return out["acks"].([]any)[0].(map[string]any)["code"] }},
		{"document", "/v1/documents", `<movieDB><movie><title/></movie></movieDB>`,
			func(out map[string]any) any { return out["code"] }},
	} {
		before, gen, errs := saved(), idx.Generation(), err5xx(tc.target)
		fs.FailAt(1, faultfs.ModeError) // the next write, the WAL append, fails
		code, raw := fetch(t, srv, "POST", tc.target, tc.body)
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v in %s", tc.name, err, raw)
		}
		if code != http.StatusInternalServerError || tc.failed(out) != codeInternal {
			t.Errorf("%s over a failed append = %d %s, want 500 internal", tc.name, code, raw)
		}
		if got := err5xx(tc.target); got != errs+1 {
			t.Errorf("%s: 5xx counter %d -> %d, want +1", tc.name, errs, got)
		}
		if idx.Generation() != gen || !bytes.Equal(saved(), before) {
			t.Errorf("%s: the failed write changed the served state", tc.name)
		}
		if code, raw := fetch(t, srv, "POST", tc.target, tc.body); code != http.StatusOK {
			t.Errorf("%s retried = %d %s, want 200", tc.name, code, raw)
		}
		if idx.Generation() != gen+1 {
			t.Errorf("%s: the retry did not commit", tc.name)
		}
	}
	// The batch's other member was the request's fault both times.
	code, raw := fetch(t, srv, "POST", "/v1/mutate", `{"op":"promote","label":"nosuch","k":1}`)
	if code != http.StatusBadRequest || !bytes.Contains(raw, []byte(codeBadRequest)) {
		t.Errorf("validation rejection = %d %s, want 400 bad_request", code, raw)
	}
}
