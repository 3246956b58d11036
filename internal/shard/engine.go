package shard

import (
	"sync"
	"sync/atomic"

	"dkindex"
	"dkindex/internal/graph"
)

// Engine serves one logical index from N in-memory shards: queries
// scatter-gather across every shard's private snapshot and documents route to
// their owning shard, each shard keeping its own result cache — so one
// shard's write invalidates only that shard's cached results.
//
// Concurrency mirrors the facade: reads are lock-free (each shard resolves
// its snapshot atomically; the routing map is an atomic pointer), mutations
// serialize on the engine's writer mutex and fan out to the target shards
// concurrently inside it.
type Engine struct {
	shards []*dkindex.Index

	// mu serializes mutations; readers never take it.
	mu   sync.Mutex
	smap atomic.Pointer[Map]
}

// emptyShardIndex builds a shard's initial state: a root-only data graph, so
// the first routed document grafts exactly like it would on a fresh
// monolithic index.
func emptyShardIndex() *dkindex.Index {
	g := graph.New()
	g.AddRoot()
	return dkindex.FromGraph(g, nil)
}

// New builds an in-memory engine with n shards. Feed it documents through
// ApplyBatch.
func New(n int) (*Engine, error) {
	m, err := newMap(n, nil)
	if err != nil {
		return nil, err
	}
	e := &Engine{shards: make([]*dkindex.Index, n)}
	for i := range e.shards {
		e.shards[i] = emptyShardIndex()
	}
	e.smap.Store(m)
	return e, nil
}

// SetResultCache resizes every shard's result cache (capacity entries per
// shard per generation; <= 0 disables caching).
func (e *Engine) SetResultCache(capacity int) {
	for _, x := range e.shards {
		x.SetResultCache(capacity)
	}
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Shard exposes one shard's index, for callers that time or inspect a shard
// on its own (cache warmth, generation, the fan-out's slowest member).
func (e *Engine) Shard(s int) *dkindex.Index { return e.shards[s] }

// Map returns the current routing map (immutable; a mutation publishes a
// successor).
func (e *Engine) Map() *Map { return e.smap.Load() }
