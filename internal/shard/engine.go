package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dkindex"
	"dkindex/internal/fsx"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
)

// Engine serves one logical index from N shards: queries scatter-gather
// across every shard's private snapshot, documents route to their owning
// shard, and each shard keeps its own result cache, WAL and checkpoint epoch
// — so one shard's write invalidates only that shard's cached results and
// fsyncs only that shard's log.
//
// Concurrency mirrors the facade: reads are lock-free (each shard resolves
// its snapshot atomically; the routing map is an atomic pointer), mutations
// serialize on the engine's writer mutex and fan out to the target shards
// concurrently inside it.
type Engine struct {
	shards []*dkindex.Index
	stores []*dkindex.Store // nil entries when the engine is in-memory
	fs     fsx.FS
	dir    string // "" when in-memory
	obs    *obs.Observer

	// mu serializes mutations, checkpoints and close; readers never take it.
	mu   sync.Mutex
	smap atomic.Pointer[Map]

	// mutSeq and durableMark are the engine-scoped write-pipeline cursors,
	// mirroring the facade's: client mutations get engine sequence numbers,
	// and the watermark advances once their per-shard commits all settled.
	mutSeq      atomic.Uint64
	durableMark atomic.Uint64
}

// shardDir names shard s's subdirectory under a sharded data directory.
func shardDir(dir string, s int) string { return fmt.Sprintf("%s/shard-%03d", dir, s) }

// emptyShardIndex builds a shard's initial state: a root-only data graph, so
// the first routed document grafts exactly like it would on a fresh
// monolithic index.
func emptyShardIndex() *dkindex.Index {
	g := graph.New()
	g.AddRoot()
	return dkindex.FromGraph(g, nil)
}

// New builds an in-memory engine with n shards (no durability). Feed it
// documents through Apply/ApplyBatch.
func New(n int) (*Engine, error) {
	m, err := newMap(n, nil)
	if err != nil {
		return nil, err
	}
	e := &Engine{shards: make([]*dkindex.Index, n), stores: make([]*dkindex.Store, n), fs: fsx.OS{}}
	for i := range e.shards {
		e.shards[i] = emptyShardIndex()
	}
	e.smap.Store(m)
	return e, nil
}

// CreateSharded initializes dir as a sharded data directory: n per-shard
// stores under shard-000/..., each a full Store (checkpoint 0 + WAL), plus
// the shard map. Every future mutation is write-ahead logged on its owning
// shard before it is acknowledged.
func CreateSharded(dir string, n int, opts *dkindex.StoreOptions) (*Engine, error) {
	m, err := newMap(n, nil)
	if err != nil {
		return nil, err
	}
	fs := optFS(opts)
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	e := &Engine{shards: make([]*dkindex.Index, n), stores: make([]*dkindex.Store, n), fs: fs, dir: dir}
	for i := range e.shards {
		idx := emptyShardIndex()
		st, err := dkindex.CreateStore(shardDir(dir, i), idx, opts)
		if err != nil {
			e.closeShards(i)
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		e.shards[i], e.stores[i] = idx, st
	}
	if err := m.save(fs, dir); err != nil {
		e.closeShards(n)
		return nil, err
	}
	e.smap.Store(m)
	return e, nil
}

// OpenSharded recovers a sharded data directory: the shard map names the
// shard count and the committed documents, each per-shard store recovers
// independently (checkpoint + WAL replay), and the recovered node counts are
// cross-checked against the map.
//
// A crash between a document's WAL commit and the map update leaves exactly
// one shard with more recovered nodes than the map records. That case is
// repaired here: the surplus is the lost commit's grafted nodes, its shard is
// known, and the lost documents were globally contiguous (they all belong to
// the one surplus shard), so recording them as a single trailing document
// yields the identical id translation. Any other mismatch — a shard with
// fewer nodes than mapped, or surplus on several shards — means the directory
// was tampered with or truncated, and the engine refuses to serve rather than
// mistranslate ids.
func OpenSharded(dir string, opts *dkindex.StoreOptions) (*Engine, []*dkindex.RecoveryReport, error) {
	fs := optFS(opts)
	m, err := loadMap(fs, dir)
	if err != nil {
		return nil, nil, err
	}
	n := m.NumShards()
	e := &Engine{shards: make([]*dkindex.Index, n), stores: make([]*dkindex.Store, n), fs: fs, dir: dir}
	reports := make([]*dkindex.RecoveryReport, n)
	surplus := -1
	for i := 0; i < n; i++ {
		st, rep, err := dkindex.OpenStore(shardDir(dir, i), opts)
		if err != nil {
			e.closeShards(i)
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		e.shards[i], e.stores[i], reports[i] = st.Index(), st, rep
		got, want := e.shards[i].Stats().DataNodes, m.ShardNodes(i)
		switch {
		case got == want:
		case got > want && surplus < 0:
			surplus = i
		default:
			e.closeShards(i + 1)
			return nil, nil, fmt.Errorf("shard: shard %d recovered %d data nodes, shard map expects %d (map and store out of sync)", i, got, want)
		}
	}
	if s := surplus; s >= 0 {
		extra := e.shards[s].Stats().DataNodes - m.ShardNodes(s)
		repaired, err := m.append(docRec{Shard: s, Nodes: extra})
		if err != nil {
			e.closeShards(n)
			return nil, nil, err
		}
		if err := repaired.save(fs, dir); err != nil {
			e.closeShards(n)
			return nil, nil, fmt.Errorf("shard: repairing shard map: %w", err)
		}
		m = repaired
	}
	e.smap.Store(m)
	return e, reports, nil
}

// optFS resolves the filesystem the engine persists its map on.
func optFS(opts *dkindex.StoreOptions) fsx.FS {
	if opts != nil && opts.FS != nil {
		return opts.FS
	}
	return fsx.OS{}
}

// closeShards closes the first n opened stores during failed construction.
func (e *Engine) closeShards(n int) {
	for i := 0; i < n; i++ {
		if e.stores[i] != nil {
			e.stores[i].Close()
		}
	}
}

// Observe attaches one observer to the engine and every shard: query
// metrics, build histograms and lifecycle events aggregate across shards
// (counters and histograms are additive), per-shard commits and generations
// report under dk_shard_* with a shard label, and the absolute size gauges
// are re-synced to engine-wide sums after every engine commit. Attach before
// sharing, like the facade's Observe.
func (e *Engine) Observe(o *obs.Observer) {
	e.obs = o
	for _, x := range e.shards {
		x.Observe(o)
	}
	if o != nil {
		o.SetShards(len(e.shards))
		e.syncGauges()
		for s, x := range e.shards {
			o.ObserveShardCommit(s, 0, x.Generation())
		}
		if e.dir != "" {
			o.RecordEvent(obs.Event{Type: obs.EventShardOpen,
				Detail: fmt.Sprintf("%d shards under %s, %d documents", len(e.shards), e.dir, e.smap.Load().NumDocs())})
		}
	}
}

// Observer returns the attached observer, or nil.
func (e *Engine) Observer() *obs.Observer { return e.obs }

// WatchLoad starts load recording on every shard, so MutOptimize can re-tune
// each shard from the queries it actually served.
func (e *Engine) WatchLoad() {
	for _, x := range e.shards {
		x.WatchLoad()
	}
}

// ObservedQueries sums the per-shard recorded distinct path queries.
func (e *Engine) ObservedQueries() int {
	total := 0
	for _, x := range e.shards {
		total += x.ObservedQueries()
	}
	return total
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

// Shard exposes one shard's index — for tests and tooling that need to
// observe per-shard state (cache warmth, generations); production traffic
// goes through the engine.
func (e *Engine) Shard(s int) *dkindex.Index { return e.shards[s] }

// Map returns the current routing map (immutable; a mutation publishes a
// successor).
func (e *Engine) Map() *Map { return e.smap.Load() }

// Generations returns the per-shard snapshot generation vector. It is the
// composite result-cache key: entry s moves only when shard s commits, so
// cached results on untouched shards stay valid across other shards' writes.
func (e *Engine) Generations() []uint64 {
	out := make([]uint64, len(e.shards))
	for i, x := range e.shards {
		out[i] = x.Generation()
	}
	return out
}

// Generation returns the sum of the generation vector: a scalar that moves
// exactly when any shard commits, for callers that need one monotone cursor.
func (e *Engine) Generation() uint64 {
	var sum uint64
	for _, x := range e.shards {
		sum += x.Generation()
	}
	return sum
}

// Watermark returns the engine's acknowledged-durable watermark: every
// accepted mutation with an engine sequence number at or below it has
// settled on its owning shard (durably applied or definitively rejected).
func (e *Engine) Watermark() uint64 { return e.durableMark.Load() }

// LastSeq returns the last assigned engine mutation sequence number.
func (e *Engine) LastSeq() uint64 { return e.mutSeq.Load() }

// Stats merges the per-shard statistics into the monolithic-equivalent view:
// node and edge counts sum (shard-local roots collapse into the one global
// root), MaxK is the largest across shards, Generation is the vector sum.
func (e *Engine) Stats() dkindex.Stats {
	var out dkindex.Stats
	for _, x := range e.shards {
		st := x.Stats()
		out.DataNodes += st.DataNodes
		out.DataEdges += st.DataEdges
		out.IndexNodes += st.IndexNodes
		out.IndexEdges += st.IndexEdges
		if st.MaxK > out.MaxK {
			out.MaxK = st.MaxK
		}
		out.Generation += st.Generation
		out.CachedResults += st.CachedResults
	}
	// Every shard counts its own root and root class; the logical view has
	// exactly one of each.
	if n := len(e.shards); n > 1 {
		out.DataNodes -= n - 1
		out.IndexNodes -= n - 1
	}
	return out
}

// Explain fans a path explanation across the shards and concatenates the
// matched index nodes (ids are shard-local — the per-shard summaries are
// independent structures), summing result counts and cost.
func (e *Engine) Explain(path string) (*dkindex.Explanation, error) {
	out := &dkindex.Explanation{Query: path}
	for _, x := range e.shards {
		ex, err := x.Explain(path)
		if err != nil {
			return nil, err
		}
		out.Matched = append(out.Matched, ex.Matched...)
		out.Results += ex.Results
		out.Stats.IndexNodesVisited += ex.Stats.IndexNodesVisited
		out.Stats.DataNodesValidated += ex.Stats.DataNodesValidated
		out.Stats.Validations += ex.Stats.Validations
	}
	return out, nil
}

// Appended sums the WAL records appended since the last checkpoint across
// all shard stores (0 for an in-memory engine) — the serve loop's "is there
// anything to checkpoint" probe.
func (e *Engine) Appended() uint64 {
	var total uint64
	for _, st := range e.stores {
		if st != nil {
			total += st.Appended()
		}
	}
	return total
}

// Epoch returns the newest checkpoint epoch across the shard stores (they
// checkpoint independently, so this is a high-water mark for logging).
func (e *Engine) Epoch() uint64 {
	var newest uint64
	for _, st := range e.stores {
		if st != nil && st.Epoch() > newest {
			newest = st.Epoch()
		}
	}
	return newest
}

// Checkpoint checkpoints every shard's store (no-op shards without one).
// Shards checkpoint independently; a failure reports the first error after
// attempting all of them.
func (e *Engine) Checkpoint() error {
	var first error
	for i, st := range e.stores {
		if st == nil {
			continue
		}
		if err := st.Checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// Close closes every shard's store. The engine must not be used afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for i, st := range e.stores {
		if st == nil {
			continue
		}
		if err := st.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
		e.stores[i] = nil
	}
	return first
}

// syncGauges re-publishes the engine-wide absolute gauges after a commit:
// individual shards also set them (last writer wins mid-flight), so the
// engine re-syncs the merged values once its commit completes.
func (e *Engine) syncGauges() {
	if e.obs == nil {
		return
	}
	st := e.Stats()
	maxK := st.MaxK
	e.obs.SetIndexSize(st.DataNodes, st.DataEdges, st.IndexNodes, st.IndexEdges, maxK)
	e.obs.SetSnapshotGeneration(st.Generation)
	e.obs.SetCacheEntries(st.CachedResults)
}
