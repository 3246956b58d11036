package dkindex

import (
	"bytes"
	"errors"
	"fmt"

	"dkindex/internal/core"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
	"dkindex/internal/wal"
	"dkindex/internal/workload"
	"dkindex/internal/xmlgraph"
)

// MutOp selects a mutation operation for Apply, mirroring Kind on the read
// side. The values double as the HTTP op names of POST /v1/mutate.
type MutOp string

// The mutation ops Apply understands.
const (
	// MutAddEdge inserts a reference edge between two existing data nodes
	// (Algorithms 4 and 5: similarities decay, no extent splits).
	MutAddEdge MutOp = "add_edge"
	// MutRemoveEdge deletes a data edge, lowering similarities to what the
	// deletion provably preserves.
	MutRemoveEdge MutOp = "remove_edge"
	// MutAddDocument parses Doc as XML and grafts it under the data graph's
	// root (Algorithm 3). The Ack reports the element-order-to-node mapping.
	MutAddDocument MutOp = "add_document"
	// MutPromote raises every index node of Label to local similarity K
	// (Algorithm 6).
	MutPromote MutOp = "promote"
	// MutDemote shrinks the index to the lower per-label requirements in Reqs
	// (Section 5.4).
	MutDemote MutOp = "demote"
	// MutSetRequirements rebuilds the index for the explicit per-label
	// requirements in Reqs.
	MutSetRequirements MutOp = "set_requirements"
	// MutOptimize re-tunes the index from the load observed since WatchLoad:
	// it picks the per-label requirements with the best cost-saved-per-node
	// ratio that keep the index within SizeBudget nodes (<= 0 for unbounded).
	// The Ack reports them; the recorder is reset once the mutation commits,
	// so each epoch tunes to fresh observations.
	MutOptimize MutOp = "optimize"
	// MutCompact drops every data node no longer reachable from the root —
	// the reclamation half of subtree deletion (remove the subtree's incoming
	// edges, then compact) — and rebuilds the index for the current
	// requirements. Node ids are renumbered: the Ack reports the old-to-new
	// mapping, and the load recorder is reset once the mutation commits (its
	// frequencies predate the renumbering).
	MutCompact MutOp = "compact"
)

// Mutation describes one write for Apply, the mutation-side mirror of
// Request. Exactly the fields named by Op are read; the rest are ignored.
type Mutation struct {
	// Op selects the operation.
	Op MutOp
	// From and To are the edge endpoints for MutAddEdge and MutRemoveEdge.
	From, To NodeID
	// Doc is the raw XML document for MutAddDocument; DocOptions configures
	// its parse (nil for the defaults).
	Doc        []byte
	DocOptions *LoadOptions
	// Label and K parameterize MutPromote.
	Label string
	K     int
	// Reqs is the per-label-name requirements map for MutDemote and
	// MutSetRequirements.
	Reqs map[string]int
	// SizeBudget bounds MutOptimize (<= 0 for unbounded).
	SizeBudget int
}

// Ack is the acknowledgement for one applied Mutation.
type Ack struct {
	// Seq is the mutation's sequence number, assigned when the write pipeline
	// accepted it. Sequence numbers are session-scoped: they restart from
	// zero when the process does (the WAL carries its own durable sequence).
	Seq uint64
	// Watermark is the acknowledged-durable watermark at acknowledgement
	// time: every accepted mutation with a sequence number <= Watermark has
	// reached its final outcome — durably applied, or definitively rejected.
	Watermark uint64
	// Generation is the snapshot generation that made the mutation visible
	// (zero when the mutation was rejected, or when the ack is asynchronous).
	Generation uint64
	// Err is the mutation's outcome inside a batch: batches apply their
	// members independently, so one bad mutation is rejected in place while
	// the rest commit. A failure of the write-ahead log rather than of the
	// mutation matches ErrNotDurable.
	Err error
	// Mapping reports MutAddDocument's element-order-to-node-id mapping, or
	// MutCompact's renumbering: old node id to new, -1 for a dropped node,
	// over the ids in force when the member applied (synchronous acks only).
	Mapping []NodeID
	// Mined reports MutOptimize's chosen requirements by label name
	// (synchronous acks only).
	Mined map[string]int
}

// preparedMutation is a Mutation after submit-time validation: documents are
// parsed outside the writer mutex, the sequence number is assigned at
// acceptance, and the ack is filled by the commit that settles it.
type preparedMutation struct {
	m    Mutation
	doc  *graph.Graph // parsed document for MutAddDocument
	opts *LoadOptions
	seq  uint64
	done chan struct{} // closed once ack is final; read acks only after it
	ack  Ack
}

// appliedMutation is one batch member that survived application and is headed
// for the write-ahead log.
type appliedMutation struct {
	p       *preparedMutation
	op      wal.Op
	payload []byte
	ev      obs.Event
	// trigger and stats feed observeBuildStats for members that rebuilt the
	// index (documents, demotes, retunes); trigger is empty otherwise.
	trigger string
	stats   core.BuildStats
	// resetRecorder, when set, is reset after the member commits durably
	// (MutOptimize tunes each epoch to fresh observations; MutCompact
	// invalidates the old ones).
	resetRecorder *workload.Recorder
}

// errEmptyBatch rejects ApplyBatch with no members.
var errEmptyBatch = errors.New("dkindex: empty mutation batch")

// ErrNotDurable marks an Ack.Err that is not a verdict on the mutation: the
// mutation was valid and applied, but the store could not make its
// write-ahead record durable (a failed append or fsync, a closed store), so
// nothing was published. The cause is wrapped beside it. Unlike a validation
// rejection, the same mutation may succeed when retried.
var ErrNotDurable = errors.New("dkindex: mutation not durable")

// Apply performs one mutation through the write pipeline and waits for its
// final outcome: the returned Ack carries the sequence number, the
// acknowledged-durable watermark and the publishing generation. When batching
// is armed (StartBatching), the mutation coalesces with concurrent writers
// into one group commit — a single WAL fsync and a single snapshot swap for
// the whole window; unarmed, it commits directly. The returned error equals
// Ack.Err.
func (x *Index) Apply(m Mutation) (Ack, error) {
	p, err := x.prepare(m)
	if err != nil {
		return Ack{}, err
	}
	x.submitPrepared([]*preparedMutation{p}, true)
	return p.ack, p.ack.Err
}

// ApplyBatch performs several mutations as one group commit: one composite
// application to a private clone, one WAL group append (a single fsync whose
// framing makes the batch atomic under recovery), and one snapshot swap —
// so the batch bumps the generation once. Members are validated
// independently: a rejected member reports its error in its Ack while the
// rest commit. The returned error is non-nil only when the batch itself is
// malformed (empty); per-member outcomes are in the acks.
func (x *Index) ApplyBatch(ms []Mutation) ([]Ack, error) {
	return x.applyBatch(ms, true)
}

// applyBatch is what ApplyBatch and ApplyBatchAsync share: members that fail
// submit-time validation are rejected in place, the rest enter the pipeline
// as one group. With wait the acks are the settled outcomes; without it they
// report what acceptance assigned.
func (x *Index) applyBatch(ms []Mutation, wait bool) ([]Ack, error) {
	if len(ms) == 0 {
		return nil, errEmptyBatch
	}
	ps := make([]*preparedMutation, 0, len(ms))
	acks := make([]Ack, len(ms))
	slots := make([]int, 0, len(ms))
	for i, m := range ms {
		p, err := x.prepare(m)
		if err != nil {
			acks[i] = Ack{Err: err}
			continue
		}
		ps = append(ps, p)
		slots = append(slots, i)
	}
	if len(ps) == 0 {
		return acks, nil
	}
	x.submitPrepared(ps, wait)
	if wait {
		for j, p := range ps {
			acks[slots[j]] = p.ack
		}
		return acks, nil
	}
	// p.seq was assigned synchronously by submitPrepared; the rest of the ack
	// belongs to the committer, which may still be running.
	w := x.Watermark()
	for j, p := range ps {
		acks[slots[j]] = Ack{Seq: p.seq, Watermark: w}
	}
	return acks, nil
}

// ApplyAsync accepts one mutation without waiting for durability: it returns
// as soon as the write pipeline assigned the sequence number. Observe
// settlement by polling Watermark — once it reaches Ack.Seq, the mutation is
// durably applied or was rejected (rejections surface in metrics and the
// event stream, not in this Ack). Without batching armed, acceptance and
// commit coincide: the mutation has settled when the call returns. This is
// also how the index writes to itself — the query that crosses the
// SetAutoPromote threshold submits its promotion here.
func (x *Index) ApplyAsync(m Mutation) (Ack, error) {
	acks, err := x.ApplyBatchAsync([]Mutation{m})
	if err != nil {
		return Ack{}, err
	}
	if acks[0].Err != nil {
		return Ack{}, acks[0].Err
	}
	return acks[0], nil
}

// ApplyBatchAsync is ApplyBatch without the durability wait: members enter
// the pipeline as one group and the acks report assigned sequence numbers
// only. Submit-time validation (unknown ops, unparsable documents) is still
// synchronous and reported per member.
func (x *Index) ApplyBatchAsync(ms []Mutation) ([]Ack, error) {
	return x.applyBatch(ms, false)
}

// Watermark returns the acknowledged-durable watermark: every accepted
// mutation with a sequence number at or below it has settled (durably
// applied or definitively rejected). The watermark is session-scoped, like
// the sequence numbers it bounds. Reload, the one state change that is not a
// Mutation, does not move it.
func (x *Index) Watermark() uint64 { return x.durableMark.Load() }

// LastSeq returns the last assigned mutation sequence number. The gap to
// Watermark is the pipeline's in-flight window.
func (x *Index) LastSeq() uint64 { return x.mutSeq.Load() }

// prepare validates the stateless half of a mutation and parses documents
// outside the writer mutex. State-dependent checks (node bounds, label
// lookups) run at apply time against the clone the batch mutates.
func (x *Index) prepare(m Mutation) (*preparedMutation, error) {
	p := &preparedMutation{m: m, done: make(chan struct{})}
	switch m.Op {
	case MutAddEdge, MutRemoveEdge, MutDemote, MutSetRequirements, MutOptimize, MutCompact:
		// Nothing to pre-compute.
	case MutPromote:
		if m.Label == "" {
			return nil, fmt.Errorf("dkindex: promote needs a label")
		}
	case MutAddDocument:
		opts := m.DocOptions
		if opts == nil {
			opts = &LoadOptions{}
		}
		h, rep, err := xmlgraph.Load(bytes.NewReader(m.Doc), opts)
		if err != nil {
			return nil, err
		}
		x.observer.AddDanglingRefs(len(rep.DanglingRefs))
		p.doc, p.opts = h, opts
	default:
		return nil, fmt.Errorf("dkindex: unknown mutation op %q", m.Op)
	}
	return p, nil
}

// submitPrepared routes prepared mutations into the pipeline. With a batcher
// armed they enqueue as one unsplittable group (sequence numbers assigned
// under the batcher lock, so queue order is sequence order) and, when wait
// is set, block until their group commit settles them. Unarmed, they commit
// directly under the writer mutex. The retry loop covers arm/disarm races:
// a stopping batcher rejects the enqueue, the submitter waits out its drain
// and re-routes.
func (x *Index) submitPrepared(ps []*preparedMutation, wait bool) {
	for {
		if b := x.batch.Load(); b != nil {
			if b.enqueue(ps) {
				if wait {
					for _, p := range ps {
						<-p.done
					}
				}
				return
			}
			<-b.drained
			continue
		}
		x.mu.Lock()
		if x.batch.Load() != nil {
			// Armed between the check and the lock; re-route so sequence
			// order keeps matching commit order.
			x.mu.Unlock()
			continue
		}
		for _, p := range ps {
			p.seq = x.mutSeq.Add(1)
		}
		x.commitLocked(ps)
		x.mu.Unlock()
		return
	}
}

// commitLocked settles a batch: one composite application to a copy-on-write
// clone of the published snapshot (the batch allocates what it writes, not a
// copy of the corpus), one WAL group append, one snapshot swap. It is the only
// function that journals, and with Reload the only one that publishes. Callers
// hold mu and have assigned contiguous sequence numbers in slice order. Rejected members
// (validation failures) are skipped — every apply validates before touching
// the clone, so the survivors commit on an untainted state; a failed group
// append rejects the whole batch and publishes nothing. All members settle:
// their acks are final when this returns, and the watermark advances over
// them either way.
func (x *Index) commitLocked(ps []*preparedMutation) {
	if len(ps) == 0 {
		return
	}
	start := x.stamp()
	cur := x.handle.Load()
	nd := cur.dk.Clone()
	x.instrument(nd)
	cloned := x.stamp()

	applied := make([]appliedMutation, 0, len(ps))
	for _, p := range ps {
		opStart := x.stamp()
		before := nd.IG.NumNodes()
		next, a, err := x.applyOne(nd, p)
		if err != nil {
			p.ack.Err = err
			continue
		}
		nd = next
		a.p = p
		a.ev.NodesBefore = before
		a.ev.NodesAfter = nd.IG.NumNodes()
		a.ev.Wall = opWall(opStart)
		applied = append(applied, a)
	}
	appliedAt := x.stamp()

	if x.jr != nil && len(applied) > 0 {
		recs := make([]wal.GroupRecord, len(applied))
		for i, a := range applied {
			recs[i] = wal.GroupRecord{Op: a.op, Payload: a.payload}
		}
		if err := x.jr.logGroup(recs); err != nil {
			err = fmt.Errorf("%w: %w", ErrNotDurable, err)
			for _, a := range applied {
				a.p.ack.Err = err
			}
			applied = applied[:0]
		}
	}

	logged := x.stamp()

	var gen uint64
	if len(applied) > 0 {
		x.publish(nd)
		gen = x.handle.Load().gen
		for _, a := range applied {
			if a.resetRecorder != nil {
				a.resetRecorder.Reset()
			}
		}
	}
	published := x.stamp()

	// Settle: the batch committed (or was rejected) in sequence order, so the
	// highest member sequence is the new watermark.
	mark := x.durableMark.Load()
	for _, p := range ps {
		if p.seq > mark {
			mark = p.seq
		}
	}
	x.durableMark.Store(mark)
	for _, p := range ps {
		p.ack.Seq = p.seq
		p.ack.Watermark = mark
		if p.ack.Err == nil {
			p.ack.Generation = gen
		}
	}

	if x.observer != nil {
		for _, a := range applied {
			x.observer.RecordEvent(a.ev)
			if a.trigger != "" {
				x.observeBuildStats(a.trigger, a.stats, a.ev.NodesAfter)
			}
		}
		wall := published.Sub(start)
		x.observer.ObserveBatchCommit(len(applied), len(ps)-len(applied), wall)
		x.observer.ObserveBatchStages(cloned.Sub(start), appliedAt.Sub(cloned), logged.Sub(appliedAt), published.Sub(logged))
		x.observer.SetMutationProgress(x.mutSeq.Load(), mark)
		if len(ps) > 1 {
			x.observer.RecordEvent(obs.Event{Type: obs.EventBatchCommit,
				NodesBefore: cur.dk.IG.NumNodes(), NodesAfter: x.handle.Load().dk.IG.NumNodes(),
				Wall: wall,
				Detail: fmt.Sprintf("%d applied, %d rejected, seq %d..%d",
					len(applied), len(ps)-len(applied), ps[0].seq, ps[len(ps)-1].seq)})
		}
		if len(applied) > 0 {
			x.syncGauges()
		}
	}
}

// applyOne applies one member to the batch clone, returning the (possibly
// replaced) clone and the member's WAL record and lifecycle event. Every
// branch (and core.AddSubgraph under it) validates before mutating, so an
// error leaves nd untouched and the rest of the batch applies on a clean
// state.
func (x *Index) applyOne(nd *core.DK, p *preparedMutation) (*core.DK, appliedMutation, error) {
	m := &p.m
	switch m.Op {
	case MutAddEdge, MutRemoveEdge:
		g := nd.IG.Data()
		if int(m.From) >= g.NumNodes() || int(m.To) >= g.NumNodes() || m.From < 0 || m.To < 0 {
			return nd, appliedMutation{}, fmt.Errorf("dkindex: edge endpoints out of range")
		}
		if m.Op == MutAddEdge {
			stats := nd.AddEdge(m.From, m.To)
			return nd, appliedMutation{op: opEdgeAdd, payload: encodeEdgePayload(m.From, m.To),
				ev: obs.Event{Type: obs.EventEdgeAdd, Visited: stats.IndexNodesVisited,
					Detail: fmt.Sprintf("%d->%d", m.From, m.To)}}, nil
		}
		stats := nd.RemoveEdge(m.From, m.To)
		return nd, appliedMutation{op: opEdgeRemove, payload: encodeEdgePayload(m.From, m.To),
			ev: obs.Event{Type: obs.EventEdgeRemove, Visited: stats.IndexNodesVisited,
				Detail: fmt.Sprintf("%d->%d", m.From, m.To)}}, nil

	case MutAddDocument:
		before := nd.IG
		mapping, err := nd.AddSubgraph(p.doc)
		if err != nil {
			return nd, appliedMutation{}, err
		}
		if nd.IG != before {
			// The refinement merged index nodes and AddSubgraph materialised
			// a new graph in place of the instrumented one; later members of
			// the batch split extents of this one.
			x.instrument(nd)
		}
		p.ack.Mapping = mapping
		return nd, appliedMutation{op: opDocument, payload: encodeDocumentPayload(p.opts, m.Doc),
			trigger: "subgraph_add", stats: nd.Stats,
			ev: obs.Event{Type: obs.EventSubgraphAdd,
				Detail: fmt.Sprintf("%d document nodes grafted", len(mapping))}}, nil

	case MutPromote:
		l := nd.IG.Data().Labels().Lookup(m.Label)
		if l == graph.InvalidLabel {
			return nd, appliedMutation{}, fmt.Errorf("dkindex: unknown label %q", m.Label)
		}
		stats := nd.PromoteLabel(l, m.K)
		return nd, appliedMutation{op: opPromote, payload: encodePromotePayload(m.Label, m.K),
			ev: obs.Event{Type: obs.EventPromote, Label: m.Label, K: m.K,
				Created: stats.IndexNodesCreated, Visited: stats.IndexNodesVisited}}, nil

	case MutDemote:
		nd.Demote(core.ReqsFromNames(nd.IG.Data().Labels(), m.Reqs))
		// Demote replaced nd.IG wholesale; instrument the one being published.
		x.instrument(nd)
		return nd, appliedMutation{op: opDemote, payload: encodeReqsPayload(m.Reqs),
			trigger: "demote", stats: nd.Stats,
			ev: obs.Event{Type: obs.EventDemote}}, nil

	case MutSetRequirements:
		g := nd.IG.Data()
		next := core.Build(g, core.ReqsFromNames(g.Labels(), m.Reqs))
		x.instrument(next)
		return next, appliedMutation{op: opSetReqs, payload: encodeReqsPayload(m.Reqs),
			trigger: "set_requirements", stats: next.Stats,
			ev: obs.Event{Type: obs.EventRetune, Detail: "explicit requirements"}}, nil

	case MutOptimize:
		rec := x.recorder.Load()
		if rec == nil || rec.Len() == 0 {
			return nd, appliedMutation{}, fmt.Errorf("dkindex: no observed load (call WatchLoad and run queries first)")
		}
		g := nd.IG.Data()
		res, err := workload.MineBudget(g, rec.Load(), m.SizeBudget)
		if err != nil {
			return nd, appliedMutation{}, err
		}
		next := core.Build(g, res.Reqs)
		x.instrument(next)
		mined := make(map[string]int, len(res.Reqs))
		for l, k := range res.Reqs {
			mined[g.Labels().Name(l)] = k
		}
		p.ack.Mined = mined
		return next, appliedMutation{op: opSetReqs, payload: encodeReqsPayload(mined),
			trigger: "optimize", stats: next.Stats, resetRecorder: rec,
			ev: obs.Event{Type: obs.EventOptimize,
				Detail: fmt.Sprintf("%d requirements mined", len(res.Reqs))}}, nil

	case MutCompact:
		g, mapping, err := nd.IG.Data().CompactReachable()
		if err != nil {
			return nd, appliedMutation{}, err
		}
		next := core.Build(g, nd.LabelReqs)
		x.instrument(next)
		p.ack.Mapping = mapping
		return next, appliedMutation{op: opCompact,
			trigger: "compact", stats: next.Stats, resetRecorder: x.recorder.Load(),
			ev: obs.Event{Type: obs.EventCompact,
				Detail: fmt.Sprintf("%d data nodes dropped", len(mapping)-g.NumNodes())}}, nil
	}
	return nd, appliedMutation{}, fmt.Errorf("dkindex: unknown mutation op %q", m.Op)
}
