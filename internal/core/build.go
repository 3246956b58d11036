package core

import (
	"fmt"
	"slices"
	"time"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/partition"
	"dkindex/internal/workpool"
)

// DK is a D(k)-index: a structural summary whose index nodes carry
// individual local similarities. It wraps an index.IndexGraph (which stores
// extents, adjacency and per-node k) together with the per-label
// requirements the index was tuned for.
type DK struct {
	// IG is the underlying index graph. Its K(n) values are the local
	// similarities: node n answers path expressions of length <= K(n)
	// soundly, longer ones require validation against the data graph.
	IG *index.IndexGraph
	// LabelReqs records the query-load requirements (pre-broadcast) the
	// index currently targets.
	LabelReqs Requirements
	// Stats describes the construction that produced this index. Zero for
	// indexes that were cloned or decoded rather than built.
	Stats BuildStats
}

// BuildStats are the construction-cost counters of one build job, surfaced
// through the observability layer (/metrics, build events) and dkbench.
type BuildStats struct {
	// Rounds is the number of refinement rounds executed (k_max after
	// broadcast; 0 when the label-split partition already satisfies every
	// requirement).
	Rounds int
	// Splits is the number of index nodes created by refinement: final
	// blocks minus label-split blocks. Refinement only splits, so this also
	// bounds the per-round split total.
	Splits int
	// PeakBlocks is the largest block count reached during refinement; the
	// partition only grows, so it equals the final pre-merge block count.
	PeakBlocks int
	// CSRBuild is the time spent snapshotting adjacency into CSR form.
	CSRBuild time.Duration
	// Total is the wall time of the whole build (partition, broadcast,
	// rounds, index-graph materialization).
	Total time.Duration
}

// Build constructs the D(k)-index of the data graph g for the given
// query-load requirements (Algorithm 2):
//
//  1. start from the label-split index graph;
//  2. broadcast the requirements so that k(parent) >= k(child) - 1
//     (Algorithm 1);
//  3. for k = 1..k_max, split every block whose requirement is >= k until it
//     is stable with respect to the previous round's partition, carrying
//     requirements to fragments by inheritance.
//
// The result's node local similarities equal the broadcast requirements, and
// the structural invariant of Definition 3 holds. Runs in O(k_max * m).
func Build(g *graph.Graph, reqs Requirements) *DK {
	ig, stats := buildFromSource(index.DataSource{G: g}, reqs, nil, false)
	return &DK{IG: ig, LabelReqs: reqs.Clone(), Stats: stats}
}

// BuildFromIndex constructs a D(k)-index using an existing index graph as
// the construction source, per Theorem 2 (the D(k)-index of a refinement of
// I_G is I_G itself). Extents of merged source nodes are unioned.
//
// When the source's local similarities have decayed below the broadcast
// requirements (as happens after edge-addition updates), result nodes are
// clamped to the minimum source similarity among their merged members, and
// the Definition 3 invariant is re-established by lowering, so the result is
// always sound. This is the engine behind subgraph addition (Algorithm 3)
// and the demoting process (Section 5.4).
func BuildFromIndex(src *index.IndexGraph, reqs Requirements) *DK {
	ig, stats := buildFromSource(src, reqs, src.K, false)
	return &DK{IG: ig, LabelReqs: reqs.Clone(), Stats: stats}
}

// BuildReference is Build on the preserved reference refinement path
// (partition.ReferenceRefineRound). It exists for the build audit, which
// asserts the fast pipeline is block-identical to it over every experiment
// dataset; it is never the production path.
func BuildReference(g *graph.Graph, reqs Requirements) *DK {
	ig, stats := buildFromSource(index.DataSource{G: g}, reqs, nil, true)
	return &DK{IG: ig, LabelReqs: reqs.Clone(), Stats: stats}
}

// BuildFromIndexReference is BuildFromIndex on the reference refinement
// path; for the build audit.
func BuildFromIndexReference(src *index.IndexGraph, reqs Requirements) *DK {
	ig, stats := buildFromSource(src, reqs, src.K, true)
	return &DK{IG: ig, LabelReqs: reqs.Clone(), Stats: stats}
}

// buildFromSource is the shared Algorithm 2 engine: refine decides the blocks
// and their local similarities, materialise makes them an index graph.
func buildFromSource(src index.Source, reqs Requirements, memberK func(graph.NodeID) int, reference bool) (*index.IndexGraph, BuildStats) {
	return new(refineScratch).build(src, reqs, memberK, reference)
}

// refineScratch is the working memory of a refinement job, all of it sized by
// the source: the partition and the refiner's snapshot and round arrays, the
// per-block requirements, the label-split quotient graph, the lowering
// worklist. A build over a data graph makes one and drops it; Algorithm 3,
// whose sources are an index and a document, keeps one from document to
// document (graftScratch), so that adding a document allocates for what it
// adds and not again for the index it is added to.
type refineScratch struct {
	part     partition.Partition
	refiner  partition.Refiner
	req      [2][]int // this round's per-block requirements and the next's
	quotient quotientGraph
	lower    lowerScratch
}

func (sc *refineScratch) build(src index.Source, reqs Requirements, memberK func(graph.NodeID) int, reference bool) (*index.IndexGraph, BuildStats) {
	start := time.Now()
	p, blockK, clamped, stats := sc.refine(src, reqs, memberK, reference)
	ig := sc.materialise(src, p, blockK, clamped)
	stats.Total = time.Since(start)
	return ig, stats
}

// refine runs Algorithms 1 and 2 over src and returns the refined partition
// with the local similarity of every block; both are the scratch's, good
// until its next refine. memberK, when non-nil, supplies the similarity
// already established for each source node: a block takes the min of its
// broadcast requirement and its members' similarities, and clamped reports
// that some block fell short of its requirement, so Definition 3 has to be
// re-established by lowering once the blocks are index nodes. With reference
// set, rounds run on the preserved reference refiner instead of the CSR
// pipeline (for the build audit). stats.Total is left for the caller, who
// knows what else the job includes.
func (sc *refineScratch) refine(src index.Source, reqs Requirements, memberK func(graph.NodeID) int, reference bool) (p *partition.Partition, blockK []int, clamped bool, stats BuildStats) {
	p = &sc.part
	p.ResetByLabel(src)
	labelBlocks := p.NumBlocks()

	// Per-block requirements from the query load.
	sc.req[0] = slices.Grow(sc.req[0][:0], p.NumBlocks())[:p.NumBlocks()]
	blockReq := sc.req[0]
	for b := range blockReq {
		blockReq[b] = reqs.Get(src.Label(p.Members(partition.BlockID(b))[0]))
	}

	// Algorithm 1 operates on the label-split index graph; derive its
	// block-level parent adjacency from the source.
	sc.quotient.reset(src, p)
	blockReq = broadcast(&sc.quotient, blockReq)

	// Algorithm 2 main loop: round k refines blocks requiring >= k against
	// the previous round's partition. The adjacency is fixed for the whole
	// job, so it is snapshotted into CSR form exactly once; each round's
	// signature and regrouping phases then fan out over the shared workpool
	// inside Refiner.Round, and the requirement inheritance for the new
	// blocks fans out here. All merges are in node/block order, so the
	// result does not depend on the fan-out width.
	kmax := 0
	for _, r := range blockReq {
		if r > kmax {
			kmax = r
		}
	}
	if kmax > 0 && !reference {
		sc.refiner.Reset(src)
		stats.CSRBuild = sc.refiner.CSRBuild
	}
	for k := 1; k <= kmax; k++ {
		req := blockReq // capture this round's values
		sel := func(b partition.BlockID) bool { return req[b] >= k }
		var res partition.RefineResult
		if reference {
			res = p.ReferenceRefineRound(src, sel)
		} else {
			res = sc.refiner.Round(p, sel)
		}
		sc.req[k%2] = slices.Grow(sc.req[k%2][:0], p.NumBlocks())[:p.NumBlocks()]
		next := sc.req[k%2]
		workpool.Chunks(len(next), workpool.Workers(len(next), 1<<15, 16), func(_, lo, hi int) {
			for nb := lo; nb < hi; nb++ {
				next[nb] = req[res.Origin[nb]] // inheritance
			}
		})
		blockReq = next
	}
	stats.Rounds = kmax
	stats.PeakBlocks = p.NumBlocks()
	stats.Splits = p.NumBlocks() - labelBlocks

	if memberK != nil {
		// Clamp each block to the weakest similarity among the source nodes
		// merged into it.
		for b := range blockReq {
			k := blockReq[b]
			for _, s := range p.Members(partition.BlockID(b)) {
				if mk := memberK(s); mk < k {
					k = mk
				}
			}
			if k < blockReq[b] {
				blockReq[b] = k
				clamped = true
			}
		}
	}
	return p, blockReq, clamped, stats
}

// materialise makes the blocks of a refined partition of src the nodes of a
// new index graph: every extent re-encoded, every data edge re-counted. It is
// what a build costs beyond its refinement, and what Algorithm 3 skips when
// the partition lets it graft the document onto the index it already has.
func (sc *refineScratch) materialise(src index.Source, p *partition.Partition, blockK []int, clamped bool) *index.IndexGraph {
	ig := index.FromPartition(src, p, func(b partition.BlockID) int { return blockK[b] })
	if clamped {
		sc.lower.run(ig)
	}
	return ig
}

// quotientGraph is the quotient parent-adjacency of a partition: the parents
// of block b are the blocks containing parents of b's members.
type quotientGraph struct {
	parents [][]graph.NodeID
	flat    []graph.NodeID // backs parents
	lastFor []int32        // lastFor[pb] = b+1 once pb is listed as a parent of b
}

func (q *quotientGraph) NumNodes() int                         { return len(q.parents) }
func (q *quotientGraph) Parents(n graph.NodeID) []graph.NodeID { return q.parents[n] }

// reset materializes the quotient of p over src, each block's parents in
// order of first appearance over its members in node order.
func (q *quotientGraph) reset(src index.Source, p *partition.Partition) {
	nb := p.NumBlocks()
	q.parents = slices.Grow(q.parents[:0], nb)[:nb]
	q.lastFor = slices.Grow(q.lastFor[:0], nb)[:nb]
	clear(q.lastFor)
	q.flat = q.flat[:0]
	for b := 0; b < nb; b++ {
		lo := len(q.flat)
		for _, n := range p.Members(partition.BlockID(b)) {
			for _, par := range src.Parents(n) {
				if pb := p.BlockOf(par); q.lastFor[pb] != int32(b+1) {
					q.lastFor[pb] = int32(b + 1)
					q.flat = append(q.flat, graph.NodeID(pb))
				}
			}
		}
		// A later append may move flat; the run carved here stays what it is.
		q.parents[b] = q.flat[lo:len(q.flat):len(q.flat)]
	}
}

// LowerToInvariant restores Definition 3 on an index graph by lowering: for
// every edge a -> b it enforces k(b) <= k(a) + 1, propagating with a
// worklist until stable. Lowering never breaks soundness (a smaller budget
// only means more validation), so this is always safe to call.
func LowerToInvariant(ig *index.IndexGraph) { new(lowerScratch).run(ig) }

// lowerScratch is LowerToInvariant's worklist: every node once, then again
// whenever it was lowered.
type lowerScratch struct {
	queue   []graph.NodeID
	inQueue []bool
}

func (s *lowerScratch) run(ig *index.IndexGraph) {
	n := ig.NumNodes()
	s.queue, s.inQueue = s.queue[:0], slices.Grow(s.inQueue[:0], n)[:n]
	for a := 0; a < n; a++ {
		s.queue = append(s.queue, graph.NodeID(a))
		s.inQueue[a] = true
	}
	for head := 0; head < len(s.queue); head++ {
		a := s.queue[head]
		s.inQueue[a] = false
		limit := ig.K(a) + 1
		for _, b := range ig.Children(a) {
			if ig.K(b) > limit {
				ig.SetK(b, limit)
				if !s.inQueue[b] {
					s.inQueue[b] = true
					s.queue = append(s.queue, b)
				}
			}
		}
	}
}

// CheckInvariant verifies Definition 3 (k(parent) >= k(child) - 1 on every
// index edge); for tests and debugging.
func CheckInvariant(ig *index.IndexGraph) error {
	for a := 0; a < ig.NumNodes(); a++ {
		ka := ig.K(graph.NodeID(a))
		for _, b := range ig.Children(graph.NodeID(a)) {
			if ka < ig.K(b)-1 {
				return fmt.Errorf("core: invariant violated on edge %d->%d: k=%d < %d-1",
					a, b, ka, ig.K(b))
			}
		}
	}
	return nil
}

// Size returns the number of index nodes, the paper's index size metric.
func (dk *DK) Size() int { return dk.IG.NumNodes() }

// Audit exhaustively verifies every similarity claim of the index up to
// level maxK (claims above maxK are checked at maxK): for each index node,
// every label path of length <= min(K, maxK) that matches the node in the
// index graph must match every data node in its extent. It returns nil when
// every claim holds. Cost grows with the number of bounded index paths, so
// keep maxK small (2-3) on large indexes. It is the semantic complement of
// IndexGraph.Validate, which checks structure only.
func Audit(ig *index.IndexGraph, maxK int) error {
	g := ig.Data()
	for b := 0; b < ig.NumNodes(); b++ {
		k := ig.K(graph.NodeID(b))
		if k > maxK {
			k = maxK
		}
		if k <= 0 {
			continue
		}
		type frame struct {
			n    graph.NodeID
			path []graph.LabelID
		}
		// Materialize b's extent once; Extent now copies out of the
		// succinct set, so calling it per discovered path would re-decode.
		ext := ig.Extent(graph.NodeID(b))
		stack := []frame{{graph.NodeID(b), []graph.LabelID{ig.Label(graph.NodeID(b))}}}
		seen := make(map[string]bool)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(cur.path) > 1 {
				key := encodePath(cur.path)
				if !seen[key] {
					seen[key] = true
					for _, d := range ext {
						if !g.LabelPathMatchesNode(cur.path, d, nil) {
							return fmt.Errorf("core: audit failed: index node %d claims k=%d but a length-%d path does not match data node %d",
								b, ig.K(graph.NodeID(b)), len(cur.path)-1, d)
						}
					}
				}
			}
			if len(cur.path) <= k {
				for _, p := range ig.Parents(cur.n) {
					np := append([]graph.LabelID{ig.Label(p)}, cur.path...)
					stack = append(stack, frame{p, np})
				}
			}
		}
	}
	return nil
}

func encodePath(path []graph.LabelID) string {
	b := make([]byte, 0, len(path)*4)
	for _, l := range path {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}
