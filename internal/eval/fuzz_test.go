package eval

import (
	"testing"

	"dkindex/internal/index"
)

// FuzzTwigAgainstReference checks the twig evaluator's dense memo tables
// against the map-based oracle of reference.go on cyclic graphs: direct
// evaluation, and index evaluation over summaries that cannot certify child
// structure — so every match is validated member by member through
// matchesEndingAt — must return the oracle's results and its exact Cost.
func FuzzTwigAgainstReference(f *testing.F) {
	for i, seed := range []string{
		"a", "a.b", "a[b]", "a[b].c", "a[b][c].d", "a[b.c].d", "a[b[c]].a", "a[a[a[a]]].a",
		"b.a[c].a[d]", "a[zz]", "zz[a].b", "a.b.c.d[a]", "ROOT.a[b]",
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
		}
	})
}
