package qcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutAndGenerationInvalidation(t *testing.T) {
	c := New(8)
	if _, ok := c.Get(0, "a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(0, "a", 1)
	if v, ok := c.Get(0, "a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(0,a) = %v %v", v, ok)
	}
	if c.Len() != 1 || c.Generation() != 0 {
		t.Fatalf("Len=%d Gen=%d", c.Len(), c.Generation())
	}
	// A lookup under a newer generation misses without any explicit flush.
	if _, ok := c.Get(1, "a"); ok {
		t.Fatal("stale entry served to newer generation")
	}
	// The first newer-generation store swaps the table wholesale.
	c.Put(1, "b", 2)
	if _, ok := c.Get(0, "a"); ok {
		t.Fatal("old generation still served after swap")
	}
	if v, ok := c.Get(1, "b"); !ok || v.(int) != 2 {
		t.Fatalf("Get(1,b) = %v %v", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after swap, want 1", c.Len())
	}
	// Stale-generation stores are dropped.
	c.Put(0, "c", 3)
	if _, ok := c.Get(0, "c"); ok {
		t.Fatal("stale put accepted")
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(2)
	for i := 0; i < 5; i++ {
		c.Put(7, fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Len())
	}
	// Re-storing an existing key is not an insert.
	c.Put(7, "k0", 42)
	if v, ok := c.Get(7, "k0"); !ok || v.(int) != 0 {
		t.Fatalf("existing key overwritten or evicted: %v %v", v, ok)
	}
}

// TestPutFuncBuildsOnlyWhatItStores: PutFunc builds its value for a store
// it admits and for no other: not on a full table, not for a generation
// older than the table's, not on a nil or zero-capacity cache.
func TestPutFuncBuildsOnlyWhatItStores(t *testing.T) {
	builds := 0
	build := func() any { builds++; return builds }
	c := New(2)
	c.PutFunc(3, "a", build)
	c.PutFunc(3, "b", build)
	if builds != 2 || c.Len() != 2 {
		t.Fatalf("two admitted stores built %d values, cache holds %d", builds, c.Len())
	}
	c.PutFunc(3, "c", build) // the table is full
	c.PutFunc(2, "d", build) // stale
	var nilCache *Cache
	nilCache.PutFunc(0, "e", build)
	New(0).PutFunc(0, "f", build)
	if builds != 2 {
		t.Fatalf("rejected stores built %d values", builds-2)
	}
	c.PutFunc(4, "g", build) // a newer generation replaces the full table
	if v, ok := c.Get(4, "g"); !ok || v != 3 || builds != 3 {
		t.Fatalf("the first store of a newer generation: got %v, %v after %d builds", v, ok, builds)
	}
}

func TestDisabledAndNil(t *testing.T) {
	var nilCache *Cache
	nilCache.Put(0, "a", 1)
	if _, ok := nilCache.Get(0, "a"); ok || nilCache.Len() != 0 || nilCache.Capacity() != 0 {
		t.Fatal("nil cache not inert")
	}
	c := New(0)
	c.Put(0, "a", 1)
	if _, ok := c.Get(0, "a"); ok || c.Len() != 0 {
		t.Fatal("zero-capacity cache stored")
	}
}

// TestConcurrentPutGet races readers, writers and generation bumps (-race).
func TestConcurrentPutGet(t *testing.T) {
	c := New(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				gen := uint64(i / 300) // periodic generation bumps
				key := fmt.Sprintf("k%d", i%64)
				if v, ok := c.Get(gen, key); ok {
					// An entry must only be served at the generation it was
					// stored under, so the value always matches the key.
					if v.(string) != key {
						t.Errorf("got %v for key %s", v, key)
						return
					}
				} else {
					c.Put(gen, key, key)
				}
			}
		}(w)
	}
	wg.Wait()
}
