package shard

import (
	"errors"
	"fmt"
	"sync"

	"dkindex"
)

// ErrCrossShard rejects an edge whose endpoints live on different shards.
// Documents are internally closed (their IDREFs resolve within the
// document), so every edge a document carries is intra-shard; only
// hand-crafted cross-document references can trip this.
var ErrCrossShard = errors.New("shard: edge endpoints live on different shards")

// errEmptyBatch mirrors the facade's empty-batch rejection.
var errEmptyBatch = errors.New("shard: empty mutation batch")

// ApplyBatch performs several mutations as one engine batch: documents go to
// their round-robin shard, edges to the shard owning their endpoints, and
// every shard with members commits its share concurrently as one per-shard
// group. Members validate independently and a rejected member reports its
// error in place; the batch errors only when malformed (empty). Every other
// op — promote, demote, set_requirements, optimize, compact — is rejected
// in place by name: the engine routes data, not summaries.
//
// An ack carries Err and, for a document, its Mapping in global ids; the
// sequence, watermark and generation fields stay zero, since each would name
// one shard's pipeline rather than the engine's.
func (e *Engine) ApplyBatch(ms []dkindex.Mutation) ([]dkindex.Ack, error) {
	if len(ms) == 0 {
		return nil, errEmptyBatch
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	m0 := e.smap.Load()
	n := len(e.shards)
	acks := make([]dkindex.Ack, len(ms))
	owner := make([]int, len(ms)) // the member's shard, or -1 when rejected here
	pos := make([]int, len(ms))   // the member's index in its shard's share
	perShard := make([][]dkindex.Mutation, n)
	docSeq := m0.NumDocs()
	for i, m := range ms {
		owner[i] = -1
		s := 0
		switch m.Op {
		case dkindex.MutAddDocument:
			s = docSeq % n
			docSeq++
		case dkindex.MutAddEdge, dkindex.MutRemoveEdge:
			var err error
			if s, m, err = m0.routeEdge(m); err != nil {
				acks[i].Err = err
				continue
			}
		case dkindex.MutPromote, dkindex.MutDemote, dkindex.MutSetRequirements, dkindex.MutOptimize, dkindex.MutCompact:
			acks[i].Err = fmt.Errorf("shard: %s is not supported: the engine routes documents and edges only", m.Op)
			continue
		default:
			acks[i].Err = fmt.Errorf("shard: unknown mutation op %q", m.Op)
			continue
		}
		owner[i], pos[i] = s, len(perShard[s])
		perShard[s] = append(perShard[s], m)
	}

	shardAcks := make([][]dkindex.Ack, n)
	var wg sync.WaitGroup
	for s := range perShard {
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

	// Collect outcomes in member order; committed documents extend the map
	// in exactly this order, which defines their global id ranges.
	var recs []docRec
	var docMembers []int
	for i := range ms {
		s := owner[i]
		if s < 0 {
			continue
		}
		sa := shardAcks[s][pos[i]]
		acks[i].Err = sa.Err
		if ms[i].Op == dkindex.MutAddDocument && sa.Err == nil {
			recs = append(recs, docRec{Shard: s, Nodes: len(sa.Mapping) - 1})
			docMembers = append(docMembers, i)
			acks[i].Mapping = sa.Mapping // shard-local; translated below
		}
	}
	if len(recs) == 0 {
		return acks, nil
	}
	m1, err := m0.append(recs...)
	if err != nil {
		// Cannot happen for well-formed records; fail the documents rather
		// than publish a map the engine could not derive.
		for _, i := range docMembers {
			acks[i].Err = err
			acks[i].Mapping = nil
		}
		return acks, nil
	}
	for _, i := range docMembers {
		global := make([]dkindex.NodeID, len(acks[i].Mapping))
		for k, l := range acks[i].Mapping {
			g, ok := m1.ToGlobal(owner[i], l)
			if !ok {
				g = -1
			}
			global[k] = g
		}
		acks[i].Mapping = global
	}
	e.smap.Store(m1)
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
