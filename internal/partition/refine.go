package partition

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dkindex/internal/graph"
	"dkindex/internal/workpool"
)

// Refiner runs refinement rounds against a fixed adjacency snapshot. It is
// the construction hot path: a refinement job (KBisimulation, the D(k) build
// loop, ...) creates one Refiner, which snapshots the neighbor lists into CSR
// form once, and then every round reuses the same pooled scratch arrays —
// signature arena, fingerprints, grouping tables — so the steady state does
// no per-node heap allocation. Rounds are spread over the shared workpool
// budget; results are block-identical to the preserved reference
// implementation (reference.go), which the build audit enforces.
//
// A Refiner is tied to the adjacency it last snapshotted: mutate the graph and
// you must Reset it or create a new one. It is not safe for concurrent use.
// The zero value is ready for Reset.
type Refiner struct {
	csr *graph.CSR

	// CSRBuild is how long the adjacency snapshot took to build; surfaced in
	// build statistics.
	CSRBuild time.Duration

	// Per-round scratch, reused across rounds. arena holds every node's
	// signature (its dedup'd sorted parent-block set) in the slots the CSR
	// row bounds carve out — a signature can never be longer than the node's
	// degree, so the edge array's shape is exactly the scratch budget needed.
	arena     []BlockID
	sigLen    []int32  // dedup'd signature length per node (-1: skipped)
	fp        []uint64 // signature fingerprint per node
	prov      []int32  // provisional group id per node, local to its shard
	origin    []BlockID
	sel       []bool
	shardCnt  []int32
	shardBase []int32
	finalID   []int32
	counts    []int32
	cursor    []int32

	// Round builds the next partition in these and takes the arrays of the
	// partition it replaced in exchange, so from its third round on — and
	// across jobs, when the partition is recycled with ResetByLabel — a
	// refinement allocates nothing.
	spareBlock   []BlockID
	spareFlat    []graph.NodeID
	spareMembers [][]graph.NodeID
}

// NewRefiner returns a Refiner over g's parent adjacency (backward
// bisimulation, the paper's direction).
func NewRefiner(g Labeled) *Refiner {
	r := new(Refiner)
	r.Reset(g)
	return r
}

// Reset re-targets the refiner at g's parent adjacency, as NewRefiner would,
// keeping the snapshot's arrays and all round scratch.
func (r *Refiner) Reset(g Labeled) {
	start := time.Now()
	if r.csr == nil {
		r.csr = new(graph.CSR)
	}
	r.csr.Reset(g.NumNodes(), g.Parents)
	r.CSRBuild = time.Since(start)
}

// NewRefinerForward returns a Refiner over g's child adjacency (forward
// rounds, used by the F&B construction).
func NewRefinerForward(g ChildrenAccess) *Refiner {
	start := time.Now()
	csr := graph.NewCSR(g.NumNodes(), g.Children)
	return &Refiner{csr: csr, CSRBuild: time.Since(start)}
}

// Fan-out tuning. Signature fingerprinting parallelizes over nodes, grouping
// over blocks; both keep enough work per chunk that the merge bookkeeping
// stays negligible, and both cap at the shard arrays' small fixed size.
const (
	sigMinPerWorker = 1 << 13
	shardMinBlocks  = 1 << 10
	maxShards       = 16
)

// shardScratch is the per-worker grouping state: an open-addressed table
// from signature fingerprints to a representative node plus the provisional
// group id assigned at that slot. Pooled so concurrent rounds (and rounds of
// different jobs) reuse tables instead of reallocating.
type shardScratch struct {
	table []int32 // slot -> representative node id, -1 empty; len is a power of two
	gid   []int32 // slot -> provisional group id of the representative
	used  []int32 // occupied slots, reset after each block
}

var shardPool = sync.Pool{New: func() any { return &shardScratch{} }}

// reserve makes the table big enough for a block of blockSize members at
// load factor <= 1/2. Freshly grown tables come pre-cleared; reused tables
// are cleared slot-by-slot via the used list after each block.
func (s *shardScratch) reserve(blockSize int) {
	need := 1
	for need < 2*blockSize {
		need <<= 1
	}
	if len(s.table) >= need {
		return
	}
	s.table = make([]int32, need)
	for i := range s.table {
		s.table[i] = -1
	}
	s.gid = make([]int32, need)
}

// Round advances p by one bisimulation level over the snapshot's adjacency:
// every node of a selected block regroups by (current block, set of current
// neighbor blocks); unselected blocks keep their grouping wholesale. A nil
// selector selects every block. Semantics — including the canonical
// numbering of new blocks by first occurrence in node order — match
// ReferenceRefineRound exactly.
//
// The round runs in three phases. Phase 1 (parallel over node ranges)
// computes each node's signature into its arena slot and fingerprints it.
// Phase 2 (parallel over block shards) is the counting-sort grouping: the
// pre-round members lists already bucket nodes by old block — the first
// counting-sort pass, maintained incrementally — so each shard only needs to
// subdivide its blocks, probing a fingerprint table with exact signature
// verification, assigning shard-local provisional ids. Phase 3 (sequential,
// O(n)) renumbers provisional groups by first occurrence in node order —
// which makes the result independent of shard boundaries and provisional
// numbering — and rebuilds the members lists with a counting sort over new
// block ids into one flat backing array.
func (r *Refiner) Round(p *Partition, selected func(BlockID) bool) RefineResult {
	n := len(p.blockOf)
	if n != r.csr.NumNodes() {
		panic(fmt.Sprintf("partition: Refiner over %d nodes applied to partition of %d", r.csr.NumNodes(), n))
	}
	if n == 0 {
		return RefineResult{}
	}
	prev := p.blockOf // snapshot semantics: all signatures read pre-round blocks
	numOld := len(p.members)

	r.sel = grow(r.sel, numOld)
	for b := range r.sel {
		r.sel[b] = selected == nil || selected(BlockID(b))
	}

	// Phase 1: signatures + fingerprints for nodes whose block can split.
	// Writes are per-node disjoint, so chunking is race-free by construction.
	r.arena = grow(r.arena, r.csr.NumEdges())
	r.sigLen = grow(r.sigLen, n)
	r.fp = grow(r.fp, n)
	r.prov = grow(r.prov, n)
	workpool.Chunks(n, workpool.Workers(n, sigMinPerWorker, maxShards), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			node := graph.NodeID(i)
			b := prev[i]
			if !r.sel[b] || len(p.members[b]) == 1 {
				r.sigLen[i] = -1 // whole block carries over; no signature needed
				continue
			}
			rowLo, rowHi := r.csr.RowBounds(node)
			sig := r.arena[rowLo:rowLo:rowHi]
			for _, nb := range r.csr.Row(node) {
				sig = append(sig, prev[nb])
			}
			sig = sortDedupBlocks(sig)
			r.sigLen[i] = int32(len(sig))
			r.fp[i] = hashBlocks(sig)
		}
	})

	// Phase 2: group within each old block, sharded over contiguous block
	// ranges. Provisional ids are shard-local; phase 3 erases the shard
	// structure, so the result does not depend on the fan-out width.
	shardWorkers := workpool.Workers(numOld, shardMinBlocks, maxShards)
	chunkSz := (numOld + shardWorkers - 1) / shardWorkers
	numShards := (numOld + chunkSz - 1) / chunkSz
	r.shardCnt = grow(r.shardCnt, numShards)
	workpool.Chunks(numOld, shardWorkers, func(w, blo, bhi int) {
		sc := shardPool.Get().(*shardScratch)
		local := int32(0)
		for b := blo; b < bhi; b++ {
			mem := p.members[b]
			if !r.sel[b] || len(mem) == 1 {
				for _, m := range mem {
					r.prov[m] = local
				}
				local++
				continue
			}
			sc.reserve(len(mem))
			mask := int32(len(sc.table) - 1)
			for _, m := range mem {
				h := r.fp[m]
				idx := int32(h) & mask
				for {
					rep := sc.table[idx]
					if rep < 0 {
						sc.table[idx] = int32(m)
						sc.gid[idx] = local
						sc.used = append(sc.used, idx)
						r.prov[m] = local
						local++
						break
					}
					// Fingerprints are a shortcut, not the truth: equal hashes
					// are verified against the arena signatures, so collisions
					// cost a compare, never a wrong merge.
					if r.fp[rep] == h && r.sameSig(graph.NodeID(rep), m) {
						r.prov[m] = sc.gid[idx]
						break
					}
					idx = (idx + 1) & mask
				}
			}
			for _, idx := range sc.used {
				sc.table[idx] = -1
			}
			sc.used = sc.used[:0]
		}
		r.shardCnt[w] = local
		shardPool.Put(sc)
	})

	// Phase 3a: canonical renumbering. Scanning nodes 0..n-1 and assigning
	// final ids at each group's first member reproduces the reference
	// numbering exactly — first occurrence in node order — no matter how
	// phase 2 numbered the groups.
	total := int32(0)
	r.shardBase = grow(r.shardBase, numShards)
	for s := 0; s < numShards; s++ {
		r.shardBase[s] = total
		total += r.shardCnt[s]
	}
	r.finalID = grow(r.finalID, int(total))
	for i := range r.finalID {
		r.finalID[i] = -1
	}
	newBlockOf := grow(r.spareBlock, n)
	origin := grow(r.origin, int(total))[:0]
	next := int32(0)
	for i := 0; i < n; i++ {
		g := r.shardBase[int(prev[i])/chunkSz] + r.prov[i]
		f := r.finalID[g]
		if f < 0 {
			f = next
			r.finalID[g] = f
			origin = append(origin, prev[i])
			next++
		}
		newBlockOf[i] = BlockID(f)
	}

	// Phase 3b: members rebuild by counting sort over new block ids — one
	// flat backing array for all blocks instead of an allocation per block.
	numNew := int(next)
	r.counts = grow(r.counts, numNew)
	clearInt32(r.counts)
	for _, b := range newBlockOf {
		r.counts[b]++
	}
	flat := grow(r.spareFlat, n)
	members := grow(r.spareMembers, numNew)
	r.cursor = grow(r.cursor, numNew)
	pos := int32(0)
	for b := 0; b < numNew; b++ {
		c := r.counts[b]
		members[b] = flat[pos : pos+c : pos+c]
		r.cursor[b] = pos
		pos += c
	}
	for i := 0; i < n; i++ {
		b := newBlockOf[i]
		flat[r.cursor[b]] = graph.NodeID(i)
		r.cursor[b]++
	}

	changed := numNew != numOld
	// Recycle the pre-round arrays as a later round's scratch.
	r.spareBlock, r.spareFlat, r.spareMembers = p.blockOf, p.flat, p.members
	p.blockOf, p.flat, p.members = newBlockOf, flat, members
	r.origin = origin
	return RefineResult{Origin: origin, Changed: changed}
}

// sameSig reports whether two nodes of the same block have identical
// signatures (exact compare against the arena; resolves fingerprint ties).
func (r *Refiner) sameSig(a, b graph.NodeID) bool {
	la, lb := r.sigLen[a], r.sigLen[b]
	if la != lb {
		return false
	}
	alo, _ := r.csr.RowBounds(a)
	blo, _ := r.csr.RowBounds(b)
	return slices.Equal(r.arena[alo:alo+la], r.arena[blo:blo+lb])
}

// sortDedupBlocks sorts a signature in place and drops duplicates. Most
// signatures are a handful of blocks, where insertion sort beats the general
// sort's dispatch overhead.
func sortDedupBlocks(s []BlockID) []BlockID {
	if len(s) < 2 {
		return s
	}
	if len(s) <= 24 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
	} else {
		slices.Sort(s)
	}
	j := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[j-1] {
			s[j] = s[i]
			j++
		}
	}
	return s[:j]
}

// hashBlocks is FNV-1a over the block ids of a signature.
func hashBlocks(sig []BlockID) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range sig {
		h ^= uint64(uint32(b))
		h *= 1099511628211
	}
	return h
}

// grow returns s resized to n, reallocating only when capacity is short.
// Contents are unspecified — callers fully overwrite or clear.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func clearInt32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}
