package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"dkindex"
)

// FuzzQueryBodyAgainstEncodingJSON holds the append encoder to its contract:
// for any query text, labels, node ids and counters, its bytes are the ones
// json.Encoder writes for the structs the endpoints used to build. Row i of
// the result is labelled with the suffix of label starting at byte i, so cuts
// through multi-byte runes (invalid UTF-8) come up on their own.
func FuzzQueryBodyAgainstEncodingJSON(f *testing.F) {
	f.Add("director.movie.title", "path", "title", uint8(3), int32(7), 3, false, false, uint64(1))
	f.Add(`say "hi" \ <b>&amp;</b>`, "rpe", "a<b>&\"\\/", uint8(9), int32(0), 9, true, false, uint64(42))
	f.Add("ctl\x00\x01\b\f\n\r\t\x1f\x7f", "twig", "\x1e\x7f tab\there", uint8(12), int32(100), 4000, false, true, uint64(0))
	f.Add("sep\u2028and\u2029", "path", "\u2028\u2029\u00e9\u4e16\U0001F600", uint8(14), int32(1<<30), 14, true, true, ^uint64(0))
	f.Add("bad\xff\xfeutf8\xc3", "path", "\xc3\x28\xe2\x82", uint8(4), int32(-5), -1, false, false, uint64(9))
	f.Add("count.only", "path", "never-listed", uint8(0), int32(0), 123456, true, false, uint64(3)) // limit=0
	f.Add("no.rows", "", "", uint8(0), int32(0), 0, false, false, uint64(1))
	f.Add("large.ids", "path", "x", uint8(2), int32(1<<31-2), 1<<40, false, false, uint64(1<<63))
	f.Fuzz(func(t *testing.T, text, kind, label string, rows uint8, base int32, total int, hit, traced bool, gen uint64) {
		var nodes []dkindex.NodeID
		for i := 0; i < int(rows); i++ {
			nodes = append(nodes, dkindex.NodeID(int64(base)+int64(i)))
		}
		names := func(n dkindex.NodeID) string {
			if label == "" {
				return ""
			}
			return label[int(uint32(n))%len(label):]
		}
		stats := dkindex.QueryStats{IndexNodesVisited: total / 3, DataNodesValidated: total - 7, Validations: int(rows)}
		res := dkindex.CompositeResult(nodes, total, stats, hit, traced, gen, names)
		want := oracleJSON(t, oracleResponse(dkindex.Kind(kind), text, &res))
		got := appendQueryBody(nil, dkindex.Kind(kind), text, &res)
		if !bytes.Equal(got, want) {
			t.Fatalf("query body differs from encoding/json:\n got %q\nwant %q", got, want)
		}
		// Appending after other bytes leaves them alone.
		if got := appendQueryBody([]byte("prefix"), dkindex.Kind(kind), text, &res); !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
			t.Fatalf("appending after a prefix gave %q", got)
		}
		// A failed batch item is the old two-key map.
		wantErr := bytes.TrimSuffix(oracleJSON(t, map[string]string{"error": text, "code": codeBadQuery}), []byte("\n"))
		if got := appendQueryError(nil, errors.New(text)); !bytes.Equal(got, wantErr) {
			t.Fatalf("error item differs from encoding/json:\n got %q\nwant %q", got, wantErr)
		}
	})
}

// FuzzQueryParamAgainstParseQuery holds the RawQuery reader to
// url.ParseQuery(raw).Get(key): percent-escapes and '+', escaped keys,
// duplicates (the first wins), empty values, malformed escapes and
// semicolons (both skipped, and the next pair of that key wins).
func FuzzQueryParamAgainstParseQuery(f *testing.F) {
	for _, raw := range []string{
		"", "q=a.b.c", "kind=rpe&q=site%2F%2Fitem.name&limit=100", "q=a+b", "q=movie%5Btitle%5D",
		"q=first&q=second", "q=&q=second", "q", "q&limit=3", "=x", "&&q=a&&", "%71=escaped-key",
		"q=%zz&q=ok", "q=%z", "q=%", "%zz=a&q=b", "q=a;b&q=c", "limit=1;q=x", "q=a&limit=2;", "q=a=b=c",
		"Q=upper", "qq=a&q=b", "q=%00%ff", "+q=a", "q+=a", "q=caf%C3%A9", "limit=%31%30",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, _ := url.ParseQuery(raw) // the handlers ignored its error too
		for _, key := range []string{"q", "kind", "limit", "path", "rpe", "twig"} {
			if got, want := queryParam(raw, key), vals.Get(key); got != want {
				t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
			}
		}
	})
}

// serveOnce sends one request straight through the handler (no network),
// under the given request ID when there is one.
func serveOnce(h http.Handler, method, target, body, requestID string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	r := httptest.NewRequest(method, target, rd)
	if requestID != "" {
		r.Header.Set("X-Request-ID", requestID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// fetch returns the status and raw body of one request through the handler.
func fetch(t testing.TB, h http.Handler, method, target, body string) (int, []byte) {
	t.Helper()
	rec := serveOnce(h, method, target, body, "")
	return rec.Code, rec.Body.Bytes()
}

// goldenIndex builds the fixture index; two calls give two indexes in the
// same state and at the same generation.
func goldenIndex(t *testing.T) *dkindex.Index {
	t.Helper()
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: map[string]int{"title": 2}}); err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestQueryEndpointsMatchOracle is the golden test: GET /v1/query and the
// items of POST /v1/query answer, on a miss, on the hit that parks the body
// and on the hit that is served from it, byte for byte what encoding/json
// wrote for the old structs filled from the library's Result.
func TestQueryEndpointsMatchOracle(t *testing.T) {
	type query struct {
		kind  dkindex.Kind
		text  string
		limit int // as Request.Limit
	}
	single := []struct {
		target string
		q      query
	}{
		{"/v1/query?q=director.movie.title", query{dkindex.KindPath, "director.movie.title", defaultListed}},
		{"/v1/query?kind=path&q=name&limit=2", query{dkindex.KindPath, "name", 2}},
		{"/v1/query?kind=rpe&q=director%2F%2Ftitle&limit=1", query{dkindex.KindRPE, "director//title", 1}},
		{"/v1/query?kind=twig&q=movie%5Btitle%5D&limit=0", query{dkindex.KindTwig, "movie[title]", -1}},
		{"/v1/query?q=no.such.label", query{dkindex.KindPath, "no.such.label", defaultListed}},
		{"/v1/query?q=director.movie.title&limit=1", query{dkindex.KindPath, "director.movie.title", 1}},
		{"/v1/query?kind=rpe&q=director.(movie|name)", query{dkindex.KindRPE, "director.(movie|name)", defaultListed}},
		{"/v1/query?kind=twig&q=director%5Bname%5D.movie", query{dkindex.KindTwig, "director[name].movie", defaultListed}},
	}
	// want is the oracle's body for q on an index in the fixture's state:
	// the first call per index is the miss, later ones are hits.
	want := func(ref *dkindex.Index, q query, traced bool) *queryResponse {
		res, err := ref.Run(dkindex.Request{Kind: q.kind, Text: q.text, Limit: q.limit})
		if err != nil {
			t.Fatal(err)
		}
		res.Traced = traced
		return oracleResponse(q.kind, q.text, &res)
	}
	for _, tc := range single {
		srv, ref := New(goldenIndex(t)), goldenIndex(t)
		for pass, name := range []string{"miss", "parking hit", "parked hit"} {
			code, got := fetch(t, srv, "GET", tc.target, "")
			resp := want(ref, tc.q, false)
			if resp.CacheHit != (pass > 0) {
				t.Fatalf("%s: the oracle's %s has cacheHit=%v", tc.target, name, resp.CacheHit)
			}
			if exp := oracleJSON(t, resp); code != http.StatusOK || !bytes.Equal(got, exp) {
				t.Errorf("%s, %s: status %d\n got %s\nwant %s", tc.target, name, code, got, exp)
			}
		}
	}

	// A sampled evaluation says so, on the miss alone.
	idx := goldenIndex(t)
	idx.Observe(tracedObserver())
	srv, ref := New(idx), goldenIndex(t)
	q := query{dkindex.KindRPE, "director//title", defaultListed}
	for pass := 0; pass < 3; pass++ {
		_, got := fetch(t, srv, "GET", "/v1/query?kind=rpe&q=director%2F%2Ftitle", "")
		if exp := oracleJSON(t, want(ref, q, pass == 0)); !bytes.Equal(got, exp) {
			t.Errorf("traced server, pass %d:\n got %s\nwant %s", pass, got, exp)
		}
	}

	// The batch: every item shape at once, two of them failing (one with
	// text that needs escaping), one repeating an earlier item so that it
	// hits within the batch.
	const batchBody = `{"queries":[
		{"q":"director.movie.title"},
		{"kind":"twig","q":"movie[title]","limit":1},
		{"kind":"path","q":"a..<b>&\"c\""},
		{"kind":"rpe","q":"director//title","limit":0},
		{"kind":"nope","q":"x"},
		{"q":"director.movie.title","limit":1}
	]}`
	items := []query{
		{dkindex.KindPath, "director.movie.title", defaultListed},
		{dkindex.KindTwig, "movie[title]", 1},
		{dkindex.KindPath, `a..<b>&"c"`, defaultListed},
		{dkindex.KindRPE, "director//title", -1},
		{"nope", "x", defaultListed},
		{dkindex.KindPath, "director.movie.title", 1},
	}
	srv, ref = New(goldenIndex(t)), goldenIndex(t)
	for pass := 0; pass < 3; pass++ {
		code, got := fetch(t, srv, "POST", "/v1/query", batchBody)
		var results []any
		var generation uint64
		for _, q := range items {
			res, err := ref.Run(dkindex.Request{Kind: q.kind, Text: q.text, Limit: q.limit})
			if err != nil {
				results = append(results, map[string]string{"error": err.Error(), "code": codeBadQuery})
				continue
			}
			generation = res.Generation
			results = append(results, oracleResponse(q.kind, q.text, &res))
		}
		exp := oracleJSON(t, map[string]any{"generation": generation, "results": results})
		if code != http.StatusOK || !bytes.Equal(got, exp) {
			t.Errorf("batch, pass %d: status %d\n got %s\nwant %s", pass, code, got, exp)
		}
	}
}
