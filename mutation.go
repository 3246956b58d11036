package dkindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"dkindex/internal/core"
	"dkindex/internal/graph"
	"dkindex/internal/index"
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

// preparedMutation is the one record a batch member is carried in from
// acceptance to its ack: the Mutation after submit-time validation (documents
// are parsed outside the writer mutex, the sequence number is assigned at
// acceptance), what applying it produced for the write-ahead log and the
// observer, and the ack the commit that settles it fills.
type preparedMutation struct {
	// m and ack are the caller's: ApplyBatch waits until the member settled,
	// so neither moves before the commit is done with them (an asynchronous
	// batch hands in copies).
	m    *Mutation
	ack  *Ack
	doc  *xmlgraph.Doc // parsed document for MutAddDocument
	opts *LoadOptions
	seq  uint64
	// done is shared by the members of one client batch and closed once the
	// last of them has settled; read acks only after it.
	done chan struct{}

	// Set by applyOne when the member applied: its write-ahead record (an
	// edge's payload lives in edge), what its lifecycle event reports (see
	// event), and for a member that rebuilt the index what to report and
	// reset once it committed.
	op               wal.Op
	edge             [2 * binary.MaxVarintLen32]byte
	payload          []byte
	before, after    int32
	visited, created int32
	wall             time.Duration
	rebuilt          *rebuild
}

// rebuild is what a member that rebuilt the index (a document, a demote, a
// retune, a compaction) reports after it commits.
type rebuild struct {
	// trigger and stats feed observeBuildStats; detail is the event's.
	trigger string
	stats   core.BuildStats
	detail  string
	// resetRecorder, when set, is reset after the member commits durably
	// (MutOptimize tunes each epoch to fresh observations; MutCompact
	// invalidates the old ones).
	resetRecorder *workload.Recorder
}

// mutEvents is the lifecycle event type of each op.
var mutEvents = map[MutOp]obs.EventType{
	MutAddEdge:         obs.EventEdgeAdd,
	MutRemoveEdge:      obs.EventEdgeRemove,
	MutAddDocument:     obs.EventSubgraphAdd,
	MutPromote:         obs.EventPromote,
	MutDemote:          obs.EventDemote,
	MutSetRequirements: obs.EventRetune,
	MutOptimize:        obs.EventOptimize,
	MutCompact:         obs.EventCompact,
}

// event is the lifecycle event of a member that committed. An edge's detail
// is formatted here, when an observer records it, not when the edge applies.
func (p *preparedMutation) event() obs.Event {
	m := p.m
	e := obs.Event{Type: mutEvents[m.Op], NodesBefore: int(p.before), NodesAfter: int(p.after),
		Visited: int(p.visited), Created: int(p.created), Wall: p.wall}
	switch {
	case m.Op == MutAddEdge, m.Op == MutRemoveEdge:
		e.Detail = fmt.Sprintf("%d->%d", m.From, m.To)
	case m.Op == MutPromote:
		e.Label, e.K = m.Label, m.K
	case p.rebuilt != nil:
		e.Detail = p.rebuilt.detail
	}
	return e
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
// acknowledged-durable watermark and the publishing generation. The mutation
// coalesces with whatever concurrent writers queued into one group commit — a
// single WAL fsync and a single snapshot swap for the whole group; with no
// commit in progress the caller commits it itself. The returned error equals
// Ack.Err.
func (x *Index) Apply(m Mutation) (Ack, error) {
	var ack Ack
	p := &preparedMutation{ack: &ack, done: make(chan struct{})}
	if err := x.prepare(p, &m); err != nil {
		return Ack{}, err
	}
	x.submitPrepared([]*preparedMutation{p}, true)
	return ack, ack.Err
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
// as one group. With wait the acks are the settled outcomes, filled in place
// by the commit; without it they report what acceptance assigned, and the
// commit, which may run after the return, settles copies.
func (x *Index) applyBatch(ms []Mutation, wait bool) ([]Ack, error) {
	if len(ms) == 0 {
		return nil, errEmptyBatch
	}
	all := make([]preparedMutation, len(ms))
	ps := make([]*preparedMutation, 0, len(ms))
	acks := make([]Ack, len(ms))
	settled := acks
	if !wait {
		ms, settled = slices.Clone(ms), make([]Ack, len(ms))
	}
	done := make(chan struct{})
	for i := range ms {
		p := &all[i]
		p.ack = &settled[i]
		if err := x.prepare(p, &ms[i]); err != nil {
			acks[i] = Ack{Err: err}
			continue
		}
		p.done = done
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		return acks, nil
	}
	x.submitPrepared(ps, wait)
	if wait {
		return acks, nil // settled in place
	}
	// p.seq was assigned synchronously by submitPrepared; the rest of the
	// member's record belongs to the committer, which may still be running.
	w := x.Watermark()
	for i := range all {
		if p := &all[i]; p.done != nil {
			acks[i] = Ack{Seq: p.seq, Watermark: w}
		}
	}
	return acks, nil
}

// ApplyBatchAsync is ApplyBatch without the durability wait: members enter
// the pipeline as one group and the acks report assigned sequence numbers
// only. Submit-time validation (unknown ops, unparsable documents) is still
// synchronous and reported per member. Observe settlement by polling
// Watermark — once it reaches a member's Ack.Seq, that member is durably
// applied or was rejected (commit-time rejections surface in metrics and the
// event stream, not in the Ack). The commit runs on whichever goroutine holds
// the committer role — one of its own when no other commit is in progress —
// so the call does not wait for it.
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

// prepare validates the stateless half of a mutation into p and parses
// documents outside the writer mutex. State-dependent checks (node bounds,
// label lookups) run at apply time against the clone the batch mutates.
func (x *Index) prepare(p *preparedMutation, m *Mutation) error {
	p.m = m
	switch m.Op {
	case MutAddEdge, MutRemoveEdge, MutDemote, MutSetRequirements, MutOptimize, MutCompact:
		// Nothing to pre-compute.
	case MutPromote:
		if m.Label == "" {
			return fmt.Errorf("dkindex: promote needs a label")
		}
	case MutAddDocument:
		opts := m.DocOptions
		if opts == nil {
			opts = &LoadOptions{}
		}
		d, rep, err := xmlgraph.LoadDoc(bytes.NewReader(m.Doc), opts)
		if err != nil {
			return err
		}
		x.observer.Counter(obs.DanglingRefs).Add(uint64(len(rep.DanglingRefs)))
		p.doc, p.opts = d, opts
	default:
		return fmt.Errorf("dkindex: unknown mutation op %q", m.Op)
	}
	return nil
}

// commitLocked settles a batch: one composite application to a copy-on-write
// clone of the published snapshot (the batch allocates what it writes, not a
// copy of the corpus), one WAL group append, one snapshot swap. It is the only
// function that journals, and with Reload the only one that publishes. Its one
// caller, drain, holds mu and hands it a group of contiguous sequence numbers
// in slice order. Rejected members
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

	// Consecutive documents are grafted as one run, in one Algorithm 3, once
	// the next accepted member that is not a document (or the end) closes the
	// run. A rejected member leaves the run open: the frame logs the accepted
	// members alone, and recovery and replicas, which replay it as one batch,
	// must group its documents as this commit did. So a document's acceptance
	// is decided from the document alone, and another member's (check) on the
	// state the open run will leave, before the run is grafted.
	applied := 0
	var run []*preparedMutation
	for _, p := range ps {
		if p.m.Op == MutAddDocument {
			if p.ack.Err = nd.CheckDocument(p.doc); p.ack.Err == nil {
				run = append(run, p)
			}
			continue
		}
		if p.ack.Err = x.check(nd, p.m, run); p.ack.Err != nil {
			continue
		}
		applied += x.addDocuments(nd, run)
		run = run[:0]
		opStart := x.stamp()
		before := nd.IG.NumNodes()
		next, err := x.applyOne(nd, p)
		if err != nil {
			p.ack.Err = err
			continue
		}
		nd = next
		p.before, p.after = int32(before), int32(nd.IG.NumNodes())
		p.wall = opWall(opStart)
		applied++
	}
	applied += x.addDocuments(nd, run)
	appliedAt := x.stamp()

	// From here on a member applied iff its ack carries no error.
	if x.jr != nil && applied > 0 {
		recs := x.walRecs[:0]
		for _, p := range ps {
			if p.ack.Err == nil {
				recs = append(recs, wal.GroupRecord{Op: p.op, Payload: p.payload})
			}
		}
		err := x.jr.logGroup(recs)
		clear(recs) // keep the buffer, not the payloads
		x.walRecs = recs[:0]
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrNotDurable, err)
			for _, p := range ps {
				if p.ack.Err == nil {
					p.ack.Err = err
				}
			}
			applied = 0
		}
	}

	logged := x.stamp()

	var gen uint64
	if applied > 0 {
		x.publish(nd)
		gen = x.handle.Load().gen
		for _, p := range ps {
			if p.ack.Err == nil && p.rebuilt != nil && p.rebuilt.resetRecorder != nil {
				p.rebuilt.resetRecorder.Reset()
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
		for _, p := range ps {
			if p.ack.Err != nil {
				continue
			}
			x.observer.RecordEvent(p.event())
			if p.rebuilt != nil {
				x.observeBuildStats(p.rebuilt.trigger, p.rebuilt.stats, int(p.after))
			}
		}
		wall := published.Sub(start)
		x.observer.ObserveBatchCommit(applied, len(ps)-applied, wall)
		x.observer.ObserveBatchStages(cloned.Sub(start), appliedAt.Sub(cloned), logged.Sub(appliedAt), published.Sub(logged))
		x.observer.Gauge(obs.MutationSeq).Set(float64(x.mutSeq.Load()))
		x.observer.Gauge(obs.MutationWatermark).Set(float64(mark))
		if len(ps) > 1 {
			x.observer.RecordEvent(obs.Event{Type: obs.EventBatchCommit,
				NodesBefore: cur.dk.IG.NumNodes(), NodesAfter: x.handle.Load().dk.IG.NumNodes(),
				Wall: wall,
				Detail: fmt.Sprintf("%d applied, %d rejected, seq %d..%d",
					applied, len(ps)-applied, ps[0].seq, ps[len(ps)-1].seq)})
		}
		if applied > 0 {
			x.syncGauges()
		}
	}
}

// addDocuments grafts a run of accepted add_document members onto the batch
// clone as one Algorithm 3 (core.DK.AddSubgraph) and records each member's
// WAL record, mapping and lifecycle event in it; it returns how many applied.
// Every member reports the run's index sizes and wall time. The run is one
// refinement, so its last member alone carries the build statistics, and the
// run records one build sample.
func (x *Index) addDocuments(nd *core.DK, run []*preparedMutation) int {
	if len(run) == 0 {
		return 0
	}
	start := x.stamp()
	before := nd.IG.NumNodes()
	docs := make([]index.Document, len(run))
	for i, p := range run {
		docs[i] = p.doc
	}
	mappings, err := nd.AddSubgraph(docs...)
	if err != nil {
		for _, p := range run {
			p.ack.Err = err
		}
		return 0
	}
	wall := opWall(start)
	for i, p := range run {
		p.ack.Mapping = mappings[i]
		p.op, p.payload = opDocument, encodeDocumentPayload(p.opts, p.m.Doc)
		p.before, p.after, p.wall = int32(before), int32(nd.IG.NumNodes()), wall
		p.rebuilt = &rebuild{trigger: "subgraph_add",
			detail: fmt.Sprintf("%d document nodes grafted", len(mappings[i]))}
	}
	run[len(run)-1].rebuilt.stats = nd.Stats
	return len(run)
}

// check rejects a member other than a document that applyOne would reject on
// the state nd will be in once the run of accepted documents before it is
// grafted, without grafting them: their nodes count towards the edge
// endpoints in range, their names towards the labels known.
func (x *Index) check(nd *core.DK, m *Mutation, run []*preparedMutation) error {
	switch m.Op {
	case MutAddEdge, MutRemoveEdge:
		n := nd.IG.Data().NumNodes()
		for _, p := range run {
			n += p.doc.NumNodes() - 1
		}
		if int(m.From) >= n || int(m.To) >= n || m.From < 0 || m.To < 0 {
			return fmt.Errorf("dkindex: edge endpoints out of range")
		}
	case MutPromote:
		if nd.IG.Data().Labels().Lookup(m.Label) != graph.InvalidLabel {
			return nil
		}
		for _, p := range run {
			for v := range p.doc.NumNodes() {
				if p.doc.LabelName(graph.NodeID(v)) == m.Label {
					return nil
				}
			}
		}
		return fmt.Errorf("dkindex: unknown label %q", m.Label)
	case MutOptimize:
		if rec := x.recorder.Load(); rec == nil || rec.Len() == 0 {
			return fmt.Errorf("dkindex: no observed load (call WatchLoad and run queries first)")
		}
	}
	return nil
}

// applyOne applies one member other than a document (see addDocuments) that
// passed check to the batch clone, returning the (possibly replaced) clone
// and recording the member's WAL record and lifecycle event in p. A branch
// that can still fail does so before mutating, so an error leaves nd
// untouched and the rest of the batch applies on a clean state.
func (x *Index) applyOne(nd *core.DK, p *preparedMutation) (*core.DK, error) {
	m := p.m
	switch m.Op {
	case MutAddEdge, MutRemoveEdge:
		nd.UseScratch(&x.upd)
		p.payload = appendEdgePayload(p.edge[:0], m.From, m.To)
		var stats index.UpdateStats
		if m.Op == MutAddEdge {
			p.op, stats = opEdgeAdd, nd.AddEdge(m.From, m.To)
		} else {
			p.op, stats = opEdgeRemove, nd.RemoveEdge(m.From, m.To)
		}
		p.visited = int32(stats.IndexNodesVisited)
		return nd, nil

	case MutPromote:
		stats := nd.PromoteLabel(nd.IG.Data().Labels().Lookup(m.Label), m.K)
		p.op, p.payload = opPromote, encodePromotePayload(m.Label, m.K)
		p.created, p.visited = int32(stats.IndexNodesCreated), int32(stats.IndexNodesVisited)
		return nd, nil

	case MutDemote:
		nd.Demote(core.ReqsFromNames(nd.IG.Data().Labels(), m.Reqs))
		// Demote replaced nd.IG wholesale; instrument the one being published.
		x.instrument(nd)
		p.op, p.payload = opDemote, encodeReqsPayload(m.Reqs)
		p.rebuilt = &rebuild{trigger: "demote", stats: nd.Stats}
		return nd, nil

	case MutSetRequirements:
		g := nd.IG.Data()
		next := core.Build(g, core.ReqsFromNames(g.Labels(), m.Reqs))
		x.instrument(next)
		p.op, p.payload = opSetReqs, encodeReqsPayload(m.Reqs)
		p.rebuilt = &rebuild{trigger: "set_requirements", stats: next.Stats,
			detail: "explicit requirements"}
		return next, nil

	case MutOptimize:
		rec := x.recorder.Load() // check saw it hold load; nothing resets it before this commit does
		g := nd.IG.Data()
		res, err := workload.MineBudget(g, rec.Load(), m.SizeBudget)
		if err != nil {
			return nd, err
		}
		next := core.Build(g, res.Reqs)
		x.instrument(next)
		mined := make(map[string]int, len(res.Reqs))
		for l, k := range res.Reqs {
			mined[g.Labels().Name(l)] = k
		}
		p.ack.Mined = mined
		p.op, p.payload = opSetReqs, encodeReqsPayload(mined)
		p.rebuilt = &rebuild{trigger: "optimize", stats: next.Stats, resetRecorder: rec,
			detail: fmt.Sprintf("%d requirements mined", len(res.Reqs))}
		return next, nil

	case MutCompact:
		g, mapping, err := nd.IG.Data().CompactReachable()
		if err != nil {
			return nd, err
		}
		next := core.Build(g, nd.LabelReqs)
		x.instrument(next)
		p.ack.Mapping = mapping
		p.op, p.payload = opCompact, nil
		p.rebuilt = &rebuild{trigger: "compact", stats: next.Stats, resetRecorder: x.recorder.Load(),
			detail: fmt.Sprintf("%d data nodes dropped", len(mapping)-g.NumNodes())}
		return next, nil
	}
	return nd, fmt.Errorf("dkindex: unknown mutation op %q", m.Op)
}
