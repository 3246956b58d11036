// Package qcache provides a bounded, generation-keyed result cache for
// snapshot-isolated serving.
//
// The cache holds results for exactly one snapshot generation at a time.
// Readers pass the generation of the snapshot they resolved; a lookup hits
// only when the cached table was filled under that same generation, so a
// mutation invalidates the whole cache simply by bumping the generation —
// no per-key invalidation, no locks, no epochs to reclaim. The first store
// under a newer generation atomically swaps in an empty table and the old
// one becomes garbage.
//
// All operations are lock-free: the current table hangs off an
// atomic.Pointer, entries live in a sync.Map, and the size bound is an
// atomic counter. The bound is approximate under contention (a handful of
// concurrent first-stores may momentarily overshoot by the number of racing
// writers), which is acceptable for a cache.
package qcache

import (
	"sync"
	"sync/atomic"
)

// Cache is a bounded result cache keyed by (generation, string key). The
// zero value is not usable; call New. All methods are safe for concurrent
// use and nil-safe, so callers can keep an optional cache in a pointer
// without guarding every call site.
type Cache struct {
	capacity int
	cur      atomic.Pointer[table]
}

// table is one generation's worth of entries.
type table struct {
	gen     uint64
	count   atomic.Int64
	entries sync.Map // string -> any
}

// New returns a cache holding at most capacity entries per generation.
// A capacity <= 0 yields a cache that never stores or returns anything.
func New(capacity int) *Cache {
	c := &Cache{capacity: capacity}
	c.cur.Store(new(table))
	return c
}

// Capacity returns the per-generation entry bound (0 for a nil cache).
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Get returns the value stored for key under exactly the given generation.
func (c *Cache) Get(gen uint64, key string) (any, bool) {
	if c == nil || c.capacity <= 0 {
		return nil, false
	}
	t := c.cur.Load()
	if t.gen != gen {
		return nil, false
	}
	return t.entries.Load(key)
}

// Put stores a value computed against the given generation. Stores for an
// older generation than the current table's are dropped (the result is
// already stale); stores for a newer one swap in a fresh table first, which
// is what wholesale invalidation amounts to. When the table is full the
// store is rejected — entries are never evicted within a generation, since
// mutation-driven invalidation already bounds entry lifetime.
func (c *Cache) Put(gen uint64, key string, v any) {
	c.PutFunc(gen, key, func() any { return v })
}

// PutFunc is Put for a value that is costly to build: it calls build only
// once the store is admitted, so a store the cache rejects builds nothing.
func (c *Cache) PutFunc(gen uint64, key string, build func() any) {
	if c == nil || c.capacity <= 0 {
		return
	}
	for {
		t := c.cur.Load()
		switch {
		case t.gen == gen:
			if t.count.Load() >= int64(c.capacity) {
				return
			}
			if _, loaded := t.entries.LoadOrStore(key, build()); !loaded {
				t.count.Add(1)
			}
			return
		case t.gen < gen:
			// First store of the new generation; losing the swap race just
			// means someone else installed the fresh table — retry into it.
			c.cur.CompareAndSwap(t, &table{gen: gen})
		default: // t.gen > gen: stale result
			return
		}
	}
}

// Len returns the number of entries cached for the current generation.
func (c *Cache) Len() int {
	if c == nil || c.capacity <= 0 {
		return 0
	}
	return int(c.cur.Load().count.Load())
}

// Generation returns the generation the current table was filled under.
func (c *Cache) Generation() uint64 {
	if c == nil {
		return 0
	}
	return c.cur.Load().gen
}
