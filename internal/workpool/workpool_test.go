package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestChunksCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1 << 12} {
		for _, workers := range []int{0, 1, 3, 8} {
			hits := make([]int32, n)
			var calls atomic.Int32
			Chunks(n, workers, func(w, lo, hi int) {
				calls.Add(1)
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, h)
				}
			}
			if n == 0 && calls.Load() != 0 {
				t.Fatalf("n=0 ran %d chunks", calls.Load())
			}
		}
	}
}

func TestChunksIndexMatchesBoundaries(t *testing.T) {
	n, workers := 100, 7
	chunk := (n + workers - 1) / workers
	var mu sync.Mutex
	seen := map[int][2]int{}
	Chunks(n, workers, func(w, lo, hi int) {
		mu.Lock()
		seen[w] = [2]int{lo, hi}
		mu.Unlock()
	})
	for w, b := range seen {
		if b[0] != w*chunk {
			t.Fatalf("chunk %d starts at %d, want %d", w, b[0], w*chunk)
		}
	}
}

func TestChunksBoundsConcurrency(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	var cur, peak atomic.Int32
	Chunks(1<<10, 64, func(w, lo, hi int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if int(peak.Load()) > limit {
		t.Fatalf("observed %d concurrent chunks, budget %d", peak.Load(), limit)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(10, 100, 0); w != 1 {
		t.Fatalf("tiny input should collapse to 1 worker, got %d", w)
	}
	if w := Workers(1<<20, 1, 4); w > 4 {
		t.Fatalf("max ignored: got %d", w)
	}
	if w := Workers(0, 0, 0); w != 1 {
		t.Fatalf("empty input: got %d workers", w)
	}
	// Never more workers than items, whatever GOMAXPROCS is.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, n := range []int{1, 2, 3} {
		if w := Workers(n, 0, 8); w != n {
			t.Fatalf("%d items: got %d workers", n, w)
		}
	}
	if w := Workers(100, 0, 8); w != 8 {
		t.Fatalf("100 items on 8 CPUs: got %d workers", w)
	}
}
