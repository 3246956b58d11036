package index_test

import (
	"bytes"
	"testing"

	"dkindex/internal/codec"
	"dkindex/internal/core"
	"dkindex/internal/experiments"
	"dkindex/internal/index"
)

// TestAKEdgeUpdateDeterministic applies one edge sequence to two A(3)-indexes
// of the same XMark graph: the propagate update must end in the same index,
// byte for byte. Its worklist used to be seeded by ranging over a map, so
// which blocks split first, and how far the propagation over-split, changed
// from run to run — and with them Figure 7's A(k) rows.
func TestAKEdgeUpdateDeterministic(t *testing.T) {
	ds, err := experiments.XMarkDataset(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := ds.RandomEdges(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	saved := func() []byte {
		ig := index.BuildAK(ds.G.Clone(), 3)
		for _, e := range edges {
			index.AKEdgeUpdate(ig, 3, e[0], e[1])
		}
		var buf bytes.Buffer
		if err := codec.SaveDK(&buf, &core.DK{IG: ig}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(saved(), saved()) {
		t.Fatal("one edge sequence, two A(3) indexes")
	}
}
