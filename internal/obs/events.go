package obs

import (
	"sync"
	"time"
)

// EventType names one kind of index lifecycle event.
type EventType string

// The lifecycle vocabulary. Extent splits are emitted per split (promotion
// can fire many); the remaining types are one event per operation, carrying
// before/after index node counts and the operation's wall time.
const (
	EventExtentSplit EventType = "extent_split"
	EventPromote     EventType = "promote"
	EventDemote      EventType = "demote"
	EventEdgeAdd     EventType = "edge_add"
	EventEdgeRemove  EventType = "edge_remove"
	EventSubgraphAdd EventType = "subgraph_add"
	EventOptimize    EventType = "optimize"
	EventRetune      EventType = "retune"
	EventCompact     EventType = "compact"
	EventCodecReload EventType = "codec_reload"

	// EventBuild is one full index construction (Algorithm 2): initial build,
	// optimize, retune, compaction or bulk replacement. Detail carries the
	// trigger and the construction counters (rounds, splits, CSR time).
	EventBuild EventType = "build"

	// Durability lifecycle: checkpoint writes, write-ahead-log appends and
	// startup recovery (see the dkindex Store).
	EventCheckpointBegin  EventType = "checkpoint_begin"
	EventCheckpointOK     EventType = "checkpoint_ok"
	EventCheckpointFail   EventType = "checkpoint_fail"
	EventWALAppend        EventType = "wal_append"
	EventRecoveryReplayed EventType = "recovery_replayed"

	// EventBatchCommit is one group commit of several mutations: a single WAL
	// fsync and a single snapshot swap. Detail carries the applied/rejected
	// split and the sequence range; the per-mutation events are emitted
	// alongside.
	EventBatchCommit EventType = "batch_commit"

	// EventCheckpointRetry is one failed background-checkpoint attempt that
	// will be retried with backoff (the terminal failure after the retry cap
	// is a checkpoint_fail followed by process exit).
	EventCheckpointRetry EventType = "checkpoint_retry"

	// Replication lifecycle, emitted by a replica tailing a primary's feed:
	// a (re)bootstrap from a shipped checkpoint, catching up to the primary's
	// head, reconnecting after a transport error, and crossing (or recovering
	// from) the configured staleness bound.
	EventReplBootstrap EventType = "replica_bootstrap"
	EventReplCaughtUp  EventType = "replica_caught_up"
	EventReplReconnect EventType = "replica_reconnect"
	EventReplStale     EventType = "replica_stale"
	EventReplFresh     EventType = "replica_fresh"
)

// Event is one index lifecycle occurrence. Seq is assigned by the stream and
// strictly increases; consumers resume with Since(seq).
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type EventType `json:"type"`
	// Label is the label name the operation targeted, when applicable.
	Label string `json:"label,omitempty"`
	// K is the similarity the operation targeted, when applicable.
	K int `json:"k,omitempty"`
	// NodesBefore/NodesAfter are index node counts around the operation.
	NodesBefore int `json:"nodesBefore"`
	NodesAfter  int `json:"nodesAfter"`
	// Created counts index nodes created (extent splits) by the operation.
	Created int `json:"created,omitempty"`
	// Visited counts index nodes visited doing the work.
	Visited int `json:"visited,omitempty"`
	// Wall is the operation's wall time in nanoseconds.
	Wall time.Duration `json:"wallNS,omitempty"`
	// Detail carries free-form context ("edge 12->97", extent sizes, ...).
	Detail string `json:"detail,omitempty"`
}

// Stream is a bounded ring of lifecycle events. Publish never blocks: the
// ring overwrites its oldest entry when full; readers page it with Recent and
// Since.
type Stream struct {
	mu      sync.Mutex
	ring    ring[Event]
	nextSeq uint64
}

// NewStream returns a stream retaining the last capacity events (minimum 1).
func NewStream(capacity int) *Stream {
	return &Stream{ring: newRing[Event](capacity)}
}

// Publish assigns the event its sequence number (and timestamp, if unset) and
// appends it to the ring. It returns the stamped event.
func (s *Stream) Publish(e Event) Event {
	s.mu.Lock()
	s.nextSeq++
	e.Seq = s.nextSeq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	s.ring.push(e)
	s.mu.Unlock()
	return e
}

// Recent returns up to n retained events, oldest first (all retained events
// when n <= 0 or exceeds the retention).
func (s *Stream) Recent(n int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.last(n)
}

// Since returns up to max retained events with Seq > seq, oldest first
// (max <= 0 for all). Events evicted from the ring are gone; callers detect
// gaps by comparing the first returned Seq against seq+1.
func (s *Stream) Since(seq uint64, max int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq >= s.nextSeq {
		return nil
	}
	// Retained events carry consecutive sequence numbers ending at nextSeq.
	out := s.ring.last(int(min(s.nextSeq-seq, uint64(s.ring.size))))
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// LastSeq returns the sequence number of the most recently published event.
func (s *Stream) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}

// ring is a bounded buffer that overwrites its oldest entry when full: the
// storage of both the event stream and the tracer. Callers serialize access.
type ring[T any] struct {
	buf        []T
	next, size int // next is where the next entry goes; size counts retained ones
}

// newRing returns a ring holding up to capacity entries (minimum 1).
func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, max(capacity, 1))} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.size = min(r.size+1, len(r.buf))
}

// last returns the newest n entries, oldest first (all of them when n <= 0
// or exceeds the retention).
func (r *ring[T]) last(n int) []T {
	if n <= 0 || n > r.size {
		n = r.size
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[(r.next-n+i+len(r.buf))%len(r.buf)]
	}
	return out
}
