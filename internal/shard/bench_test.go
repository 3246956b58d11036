package shard

import (
	"testing"

	"dkindex"
)

// benchEngine builds a 4-shard in-memory engine over 8 XMark documents with
// result caches off, so every measured Run pays the full scatter, per-shard
// evaluation and merge.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e := engineWith(b, 4, corpus(b, 8))
	e.SetResultCache(0)
	return e
}

// BenchmarkShardQueryFanout measures the merged read path: one RPE fanned to
// four shards, the sorted per-shard results translated to global ids and
// merged. This is the scatter-gather overhead the guard watches.
func BenchmarkShardQueryFanout(b *testing.B) {
	e := benchEngine(b)
	req := dkindex.Request{Kind: dkindex.KindRPE, Text: "site//item"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardApplyBatch measures the shard-parallel write path: one batch
// with an edge mutation in every shard, split by owning shard and committed
// concurrently (in memory, so the cost is routing + parallel snapshot swaps
// rather than fsync; edges leave the routing map as it is).
func BenchmarkShardApplyBatch(b *testing.B) {
	e := benchEngine(b)
	m := e.Map()
	// One intra-document edge pair per shard: the first two grafted nodes of
	// each shard's first owned document.
	pairs := make([][2]dkindex.NodeID, m.NumShards())
	for s := range pairs {
		from, ok := m.ToGlobal(s, 1)
		if !ok {
			b.Fatalf("shard %d has no grafted nodes", s)
		}
		to, ok := m.ToGlobal(s, 2)
		if !ok {
			b.Fatalf("shard %d has a single grafted node", s)
		}
		pairs[s] = [2]dkindex.NodeID{from, to}
	}
	batch := make([]dkindex.Mutation, len(pairs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := dkindex.MutAddEdge
		if i%2 == 1 {
			op = dkindex.MutRemoveEdge
		}
		for s, p := range pairs {
			batch[s] = dkindex.Mutation{Op: op, From: p[0], To: p[1]}
		}
		acks, err := e.ApplyBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range acks {
			if a.Err != nil {
				b.Fatal(a.Err)
			}
		}
	}
}
