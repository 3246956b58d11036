package shard

import (
	"math"
	"sync"

	"dkindex"
	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
)

// Run evaluates one query by scattering it to every shard and merging the
// sorted per-shard results into the answer the monolithic index would give.
//
// Exactness: a non-root node matches iff its owning shard matched it locally
// (every incoming path of a node lies within its document's shard, roots
// identified), and the global root matches iff any shard matched its local
// root. Shard-local result sets are sorted and — roots aside — translate into
// disjoint sorted global runs, so the merge is a duplicate-free sorted union.
// The one caveat is a root-anchored twig: a subtree predicate on the root can
// span shards, and each shard judges it against its own slice only.
//
// Limit is applied post-merge. Shards receive a translated limit that keeps
// just enough slack to merge exactly: one extra slot for a possible local
// root match (which collapses into the single global root), and count-only
// queries keep one node per shard so root membership stays detectable.
func (e *Engine) Run(req dkindex.Request) (dkindex.Result, error) {
	m := e.smap.Load()
	shardReq := req
	shardReq.Limit = shardLimit(req.Limit)
	shardReq.AcceptBody = false // the merge needs every shard's nodes
	shardReq.Dst = nil          // shards list concurrently, each into its own slice

	per := make([]dkindex.Result, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for s := range e.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			per[s], errs[s] = e.shards[s].Run(shardReq)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Parse errors are purely syntactic (unknown labels resolve to
			// InvalidLabel and simply match nothing), so every shard fails
			// identically; the first error speaks for all.
			return dkindex.Result{}, err
		}
	}
	return e.mergeResults(m, per, req.Limit), nil
}

// shardLimit translates the client limit into the per-shard scatter limit.
// Unlimited stays unlimited; a positive limit L becomes L+1 because a shard's
// local root match occupies a slot but collapses into the one global root
// post-merge (so up to L non-root nodes must survive per shard); count-only
// keeps one node per shard, enough to see whether the local root matched
// (Result.Total is always the full count regardless of limit).
func shardLimit(limit int) int {
	switch {
	case limit == 0:
		return 0
	case limit < 0:
		return 1
	default:
		return limit + 1
	}
}

// mergeResults merges per-shard results for one request into the composite
// global result: sorted duplicate-free union of the translated node sets,
// summed cost counters, root dedup in Total, and the client limit applied
// post-merge. CacheHit reports whether every shard answered from its cache
// (the engine-level hit); Traced whether any shard's evaluation was sampled.
func (e *Engine) mergeResults(m *Map, per []dkindex.Result, limit int) dkindex.Result {
	rootMatched := false
	sets := make([]nodeset.Set, 0, len(per))
	var stats dkindex.QueryStats
	total := 0
	cacheHit := true
	traced := false
	var gen uint64
	for s := range per {
		res := &per[s]
		stats.IndexNodesVisited += res.Stats.IndexNodesVisited
		stats.DataNodesValidated += res.Stats.DataNodesValidated
		stats.Validations += res.Stats.Validations
		total += res.Total
		cacheHit = cacheHit && res.CacheHit
		traced = traced || res.Traced
		gen += res.Generation

		locals := res.Nodes
		if len(locals) > 0 && locals[0] == 0 {
			// The shard's local root: collapses into the global root.
			if rootMatched {
				total-- // counted once globally, not once per shard
			}
			rootMatched = true
			locals = locals[1:]
		}
		// Drop locals beyond the pinned map: a document commit that raced
		// this query published shard nodes the map cannot translate yet;
		// excluding them answers as of the map's state. (Quiescent reads
		// never take this branch.)
		for len(locals) > 0 && int(locals[len(locals)-1]) >= m.ShardNodes(s) {
			locals = locals[:len(locals)-1]
			total--
		}
		if len(locals) == 0 {
			continue
		}
		globals := m.AppendGlobal(make([]graph.NodeID, 0, len(locals)), s, locals)
		sets = append(sets, nodeset.FromSorted(globals))
	}

	var extra []graph.NodeID
	if rootMatched {
		extra = []graph.NodeID{0}
	}
	nodes := nodeset.MergeAppend(nil, sets, extra, math.MaxInt)
	switch {
	case limit < 0:
		nodes = nil
	case limit > 0 && len(nodes) > limit:
		nodes = nodes[:limit]
	}
	return dkindex.CompositeResult(nodes, total, stats, cacheHit, traced, gen, e.nameResolver(m, per))
}

// nameResolver resolves merged global node ids to label names by locating the
// owning shard and asking its result (pinned to the snapshot that answered).
func (e *Engine) nameResolver(m *Map, per []dkindex.Result) func(dkindex.NodeID) string {
	results := append([]dkindex.Result(nil), per...)
	return func(n dkindex.NodeID) string {
		s, l, ok := m.Locate(n)
		if !ok {
			return ""
		}
		if s < 0 {
			s, l = 0, 0
		}
		return results[s].LabelName(l)
	}
}
