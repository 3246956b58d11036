package dkindex

import (
	"runtime"
	"testing"

	"dkindex/internal/experiments"
)

// commitAllocBytes builds the load-tuned D(k)-index of XMark at the given
// scale and returns the bytes one commit of the benchmark's edge batch
// allocates (add four reference edges, remove the four the previous batch
// added), averaged over a run of batches after one warm-up batch.
func commitAllocBytes(t *testing.T, scale float64) float64 {
	t.Helper()
	const batches = 16
	ds, err := experiments.XMarkDataset(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make(map[string]int)
	for l, k := range ds.W.Requirements() {
		reqs[ds.G.Labels().Name(l)] = k
	}
	idx := FromGraph(ds.G, reqs)
	edges, err := ds.RandomEdges(4*(batches+2), 1)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(b int) {
		ms := make([]Mutation, 0, 8)
		for _, e := range edges[4*(b+1) : 4*(b+2)] {
			ms = append(ms, Mutation{Op: MutAddEdge, From: e[0], To: e[1]})
		}
		for _, e := range edges[4*b : 4*(b+1)] {
			ms = append(ms, Mutation{Op: MutRemoveEdge, From: e[0], To: e[1]})
		}
		acks, err := idx.ApplyBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range acks {
			if a.Err != nil {
				t.Fatal(a.Err)
			}
		}
	}
	commit(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := 1; b <= batches; b++ {
		commit(b)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / batches
}

// TestCommitAllocationFlatInCorpusSize pins ROADMAP item 3's "flat in corpus
// size": a write batch allocates what it touches, not a copy of the corpus.
// With deep-copy clones the same batch allocated 8.7 MB at scale 1.0, four
// times its cost at scale 0.25.
func TestCommitAllocationFlatInCorpusSize(t *testing.T) {
	small := commitAllocBytes(t, 0.25)
	full := commitAllocBytes(t, 1.0)
	t.Logf("bytes per 8-edge commit: %.0f at scale 0.25, %.0f at scale 1.0 (ratio %.2f)", small, full, full/small)
	if full >= 1<<20 {
		t.Errorf("an 8-edge commit allocates %.0f bytes at scale 1.0, want < 1 MB", full)
	}
	if full/small >= 1.5 {
		t.Errorf("commit allocation grew %.2fx from scale 0.25 to 1.0, want < 1.5x", full/small)
	}
}
