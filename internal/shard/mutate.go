package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dkindex"
	"dkindex/internal/obs"
)

// ErrCrossShard rejects an edge whose endpoints live on different shards.
// Documents are internally closed (their IDREFs resolve within the
// document), so every edge a document carries is intra-shard; only
// hand-crafted cross-document references can trip this.
var ErrCrossShard = errors.New("shard: edge endpoints live on different shards")

// errEmptyBatch mirrors the facade's empty-batch rejection.
var errEmptyBatch = errors.New("shard: empty mutation batch")

// Ack is the engine's acknowledgement for one mutation: the facade ack plus
// the owning shard and the post-commit generation vector. The vector is the
// composite result-cache key — entry s moves only when shard s commits, so a
// write to one shard leaves every other shard's cached results valid.
type Ack struct {
	dkindex.Ack
	// Shard is the shard that applied the mutation, or -1 for broadcast
	// operations (promote, demote, set_requirements, optimize) and rejected
	// members that never reached a shard.
	Shard int
	// Generations is the engine's generation vector after the batch settled.
	Generations []uint64
}

// broadcastOp reports whether op targets the summaries of every shard rather
// than one shard's data.
func broadcastOp(op dkindex.MutOp) bool {
	switch op {
	case dkindex.MutPromote, dkindex.MutDemote, dkindex.MutSetRequirements, dkindex.MutOptimize:
		return true
	}
	return false
}

// Apply performs one mutation through the engine and waits for its outcome,
// mirroring the facade's Apply. The returned error equals Ack.Err.
func (e *Engine) Apply(m dkindex.Mutation) (dkindex.Ack, error) {
	acks, err := e.ApplyBatchSharded([]dkindex.Mutation{m})
	if err != nil {
		return dkindex.Ack{}, err
	}
	return acks[0].Ack, acks[0].Err
}

// ApplyBatch performs several mutations as one engine batch, committing the
// target shards concurrently. It mirrors the facade's ApplyBatch: members
// validate independently, a rejected member reports its error in place, and
// the batch errors only when malformed (empty).
func (e *Engine) ApplyBatch(ms []dkindex.Mutation) ([]dkindex.Ack, error) {
	acks, err := e.ApplyBatchSharded(ms)
	if err != nil {
		return nil, err
	}
	out := make([]dkindex.Ack, len(acks))
	for i := range acks {
		out[i] = acks[i].Ack
	}
	return out, nil
}

// ApplyBatchAsync accepts a batch and reports assigned sequence numbers.
// The sharded engine commits synchronously — per-shard group commit already
// coalesces the fsyncs, so there is no separate acceptance queue — and the
// acks are therefore complete, which satisfies the async contract (the
// watermark has passed every member by return).
func (e *Engine) ApplyBatchAsync(ms []dkindex.Mutation) ([]dkindex.Ack, error) {
	return e.ApplyBatch(ms)
}

// ApplyBatchSharded is ApplyBatch with the engine-level acks: owning shard
// and generation vector included. The batch is split into runs of routed
// members (documents and edges, committed on their target shards
// concurrently) separated by broadcast members (fanned to every shard
// concurrently); runs settle in order, so engine sequence numbers are
// acknowledged in commit order.
func (e *Engine) ApplyBatchSharded(ms []dkindex.Mutation) ([]Ack, error) {
	if len(ms) == 0 {
		return nil, errEmptyBatch
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	acks := make([]Ack, len(ms))
	for i := range acks {
		acks[i].Shard = -1
		acks[i].Seq = e.mutSeq.Add(1)
	}
	i := 0
	for i < len(ms) {
		if broadcastOp(ms[i].Op) {
			e.applyBroadcastLocked(ms[i], &acks[i])
			i++
			continue
		}
		j := i + 1
		for j < len(ms) && !broadcastOp(ms[j].Op) {
			j++
		}
		e.applyRoutedLocked(ms[i:j], acks[i:j])
		i = j
	}

	// Settle: every member reached its final outcome, so the engine
	// watermark advances over the whole batch.
	mark := e.durableMark.Load()
	for i := range acks {
		if acks[i].Seq > mark {
			mark = acks[i].Seq
		}
	}
	e.durableMark.Store(mark)
	vec := e.Generations()
	var sum uint64
	for _, g := range vec {
		sum += g
	}
	for i := range acks {
		acks[i].Watermark = mark
		acks[i].Generations = vec
		if acks[i].Err == nil {
			acks[i].Generation = sum
		} else {
			acks[i].Generation = 0
		}
	}
	if e.obs != nil {
		e.obs.SetMutationProgress(e.mutSeq.Load(), mark)
		e.syncGauges()
	}
	return acks, nil
}

// routeEdge translates an edge mutation's global endpoints into the owning
// shard's local ids. An endpoint at the global root translates to the target
// shard's local root (every shard holds one); two non-root endpoints must
// share a shard. Documents are internally closed, so every edge a document
// carries is intra-shard; a hand-crafted edge between documents on different
// shards is rejected with ErrCrossShard.
func (m *Map) routeEdge(mu dkindex.Mutation) (int, dkindex.Mutation, error) {
	sf, lf, ok := m.Locate(mu.From)
	if !ok {
		return 0, mu, fmt.Errorf("shard: edge endpoint %d out of range", mu.From)
	}
	st, lt, ok := m.Locate(mu.To)
	if !ok {
		return 0, mu, fmt.Errorf("shard: edge endpoint %d out of range", mu.To)
	}
	if sf >= 0 && st >= 0 && sf != st {
		return 0, mu, fmt.Errorf("%w: node %d is on shard %d, node %d on shard %d",
			ErrCrossShard, mu.From, sf, mu.To, st)
	}
	s := sf
	if s < 0 {
		s = st
	}
	if s < 0 {
		s = 0 // root-to-root; shard 0 validates (and rejects the self-loop)
	}
	mu.From, mu.To = lf, lt
	return s, mu, nil
}

// applyRoutedLocked commits a run of routed members: documents go to their
// round-robin shard, edges to the shard owning their endpoints, and every
// shard with members commits concurrently as one per-shard group (one WAL
// fsync, one snapshot swap each). Successful documents are then appended to
// the routing map, which is published and persisted after the commits.
func (e *Engine) applyRoutedLocked(ms []dkindex.Mutation, acks []Ack) {
	m0 := e.smap.Load()
	n := len(e.shards)
	perShard := make([][]dkindex.Mutation, n)
	pos := make([]int, len(ms))
	docSeq := m0.NumDocs()
	for i, m := range ms {
		switch m.Op {
		case dkindex.MutAddDocument:
			s := docSeq % n
			docSeq++
			acks[i].Shard = s
			pos[i] = len(perShard[s])
			perShard[s] = append(perShard[s], m)
		case dkindex.MutAddEdge, dkindex.MutRemoveEdge:
			s, lm, err := m0.routeEdge(m)
			if err != nil {
				acks[i].Err = err
				continue
			}
			acks[i].Shard = s
			pos[i] = len(perShard[s])
			perShard[s] = append(perShard[s], lm)
		case dkindex.MutCompact:
			acks[i].Err = fmt.Errorf("shard: %s is not supported: global node ids are positions in the shard map, and compaction renumbers shard-local ids", m.Op)
		default:
			acks[i].Err = fmt.Errorf("shard: unknown mutation op %q", m.Op)
		}
	}

	shardAcks := make([][]dkindex.Ack, n)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < n; s++ {
		if len(perShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sa, err := e.shards[s].ApplyBatch(perShard[s])
			if err != nil {
				sa = make([]dkindex.Ack, len(perShard[s]))
				for k := range sa {
					sa[k].Err = err
				}
			}
			shardAcks[s] = sa
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)

	// Collect outcomes in member order; committed documents extend the map
	// in exactly this order, which defines their global id ranges.
	var recs []docRec
	var docMembers []int
	for i := range ms {
		s := acks[i].Shard
		if acks[i].Err != nil || s < 0 {
			continue
		}
		sa := shardAcks[s][pos[i]]
		acks[i].Err = sa.Err
		acks[i].Mined = sa.Mined
		if ms[i].Op == dkindex.MutAddDocument && sa.Err == nil {
			recs = append(recs, docRec{Shard: s, Nodes: len(sa.Mapping) - 1})
			docMembers = append(docMembers, i)
			acks[i].Mapping = sa.Mapping // shard-local; translated below
		}
	}
	m1 := m0
	if len(recs) > 0 {
		next, err := m0.append(recs...)
		if err != nil {
			// Cannot happen for well-formed records; fail the documents
			// rather than publish a map the engine could not derive.
			for _, i := range docMembers {
				acks[i].Err = err
				acks[i].Mapping = nil
			}
		} else {
			m1 = next
			for _, i := range docMembers {
				s := acks[i].Shard
				global := make([]dkindex.NodeID, len(acks[i].Mapping))
				for k, l := range acks[i].Mapping {
					g, ok := m1.ToGlobal(s, l)
					if !ok {
						g = -1
					}
					global[k] = g
				}
				acks[i].Mapping = global
			}
			e.smap.Store(m1)
			if e.dir != "" {
				if err := m1.save(e.fs, e.dir); err != nil && e.obs != nil {
					// The commit is durable in the shard WALs; a failed map
					// write is repaired at next open (single-shard surplus).
					e.obs.RecordEvent(obs.Event{Type: obs.EventShardCommit,
						Detail: fmt.Sprintf("shard map write failed (will repair at open): %v", err)})
				}
			}
		}
	}

	if e.obs != nil {
		for s := 0; s < n; s++ {
			if len(perShard[s]) == 0 {
				continue
			}
			applied := 0
			for _, sa := range shardAcks[s] {
				if sa.Err == nil {
					applied++
				}
			}
			e.obs.ObserveShardCommit(s, applied, e.shards[s].Generation())
			e.obs.RecordEvent(obs.Event{Type: obs.EventShardCommit, Wall: wall,
				Detail: fmt.Sprintf("shard %d: %d applied, %d rejected", s, applied, len(perShard[s])-applied)})
		}
	}
}

// applyBroadcastLocked fans one summary-level mutation (promote, demote,
// set_requirements, optimize) to every shard concurrently. Promote and
// optimize tolerate shards the operation does not apply to (a label unknown
// to a shard, a shard with no observed load): the member succeeds when any
// shard applied it, and errors only when all of them rejected it. Each shard
// optimizes from its own observed load under an even share of the budget,
// and the ack reports the union of what they mined (the larger k wins where
// shards disagree on a label).
func (e *Engine) applyBroadcastLocked(m dkindex.Mutation, ack *Ack) {
	n := len(e.shards)
	local := m
	if m.Op == dkindex.MutOptimize && m.SizeBudget > 0 {
		local.SizeBudget = max(1, m.SizeBudget/n)
	}
	accs := make([]dkindex.Ack, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			accs[s], errs[s] = e.shards[s].Apply(local)
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)

	ok := 0
	var firstErr error
	for s := 0; s < n; s++ {
		if errs[s] == nil {
			ok++
		} else if firstErr == nil {
			firstErr = errs[s]
		}
	}
	if m.Op == dkindex.MutOptimize && ok > 0 {
		mined := make(map[string]int)
		for s := range accs {
			for l, k := range accs[s].Mined {
				if k > mined[l] {
					mined[l] = k
				}
			}
		}
		ack.Mined = mined
	}
	tolerant := m.Op == dkindex.MutPromote || m.Op == dkindex.MutOptimize
	if ok == 0 || (!tolerant && firstErr != nil) {
		ack.Err = firstErr
	}

	if e.obs != nil {
		for s := 0; s < n; s++ {
			applied := 0
			if errs[s] == nil {
				applied = 1
			}
			e.obs.ObserveShardCommit(s, applied, e.shards[s].Generation())
		}
		e.obs.RecordEvent(obs.Event{Type: obs.EventShardCommit, Wall: wall,
			Detail: fmt.Sprintf("broadcast %s: %d/%d shards applied", m.Op, ok, n)})
	}
}
