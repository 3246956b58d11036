package eval

import (
	"testing"

	"dkindex/internal/index"
)

// FuzzTwigAgainstReference checks the trunk walker's dense memo tables
// against the map-based oracles of reference.go on cyclic graphs: direct
// evaluation, and index evaluation over summaries that cannot certify child
// structure — so every match is validated member by member through
// matchesEndingAt — must return the oracle's results and its exact Cost. A
// predicate-free twig is also a simple path, and is run again through Data,
// Index and IndexNoValidation, whose k rule validates differently.
func FuzzTwigAgainstReference(f *testing.F) {
	for i, seed := range []string{
		"a", "a.b", "a[b]", "a[b].c", "a[b][c].d", "a[b.c].d", "a[b[c]].a", "a[a[a[a]]].a",
		"b.a[c].a[d]", "a[zz]", "zz[a].b", "a.b.c.d[a]", "ROOT.a[b]",
		"b", "a.b.a.b",
	} {
		f.Add(seed, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if len(src) > 128 {
			return // keep queries small
		}
		g := randomGraph(seed, 120, 4, 60)
		q, err := ParseTwig(g.Labels(), src)
		if err != nil {
			return
		}
		res, c := DataTwig(g, q)
		want, wc := ReferenceDataTwig(g, q)
		if !SameResult(res, want) || c != wc {
			t.Fatalf("%q on data: %v/%+v, reference %v/%+v", src, res, c, want, wc)
		}
		var path Query
		if q.predicateFree() {
			for _, s := range q.Steps {
				path = append(path, s.Label)
			}
			res, c := Data(g, path)
			want, wc := ReferenceData(g, path)
			if !SameResult(res, want) || c != wc {
				t.Fatalf("path %q on data: %v/%+v, reference %v/%+v", src, res, c, want, wc)
			}
		}
		for name, ig := range map[string]*index.IndexGraph{
			"label-split": index.BuildLabelSplit(g),
			"A(1)":        index.BuildAK(g, 1),
			"F&B":         index.BuildFB(g),
		} {
			res, c := IndexTwig(ig, q)
			want, wc := ReferenceIndexTwig(ig, q)
			if !SameResult(res, want) || c != wc {
				t.Fatalf("%q on %s: %v/%+v, reference %v/%+v", src, name, res, c, want, wc)
			}
			if path == nil {
				continue
			}
			res, c = Index(ig, path)
			want, wc = ReferenceIndex(ig, path)
			if !SameResult(res, want) || c != wc {
				t.Fatalf("path %q on %s: %v/%+v, reference %v/%+v", src, name, res, c, want, wc)
			}
			res, c = IndexNoValidation(ig, path)
			want, wc = ReferenceIndexNoValidation(ig, path)
			if !SameResult(res, want) || c != wc {
				t.Fatalf("unvalidated path %q on %s: %v/%+v, reference %v/%+v", src, name, res, c, want, wc)
			}
		}
	})
}
