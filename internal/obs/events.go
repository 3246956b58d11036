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
	EventAutoPromote EventType = "auto_promote"
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

	// Sharded-serving lifecycle, emitted by the scatter-gather engine: shards
	// opened or created under a data directory, and per-shard mutation
	// commits (Detail carries the shard number and what it absorbed; the
	// underlying index's own build events are emitted alongside).
	EventShardOpen   EventType = "shard_open"
	EventShardCommit EventType = "shard_commit"
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
	buf     []Event // ring, buf[(start+i)%cap] for i < size
	start   int
	size    int
	nextSeq uint64
}

// NewStream returns a stream retaining the last capacity events (minimum 1).
func NewStream(capacity int) *Stream {
	if capacity < 1 {
		capacity = 1
	}
	return &Stream{buf: make([]Event, capacity)}
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
	if s.size < len(s.buf) {
		s.buf[(s.start+s.size)%len(s.buf)] = e
		s.size++
	} else {
		s.buf[s.start] = e
		s.start = (s.start + 1) % len(s.buf)
	}
	s.mu.Unlock()
	return e
}

// Recent returns up to n retained events, oldest first (all retained events
// when n <= 0 or exceeds the retention).
func (s *Stream) Recent(n int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > s.size {
		n = s.size
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = s.buf[(s.start+s.size-n+i)%len(s.buf)]
	}
	return out
}

// Since returns up to max retained events with Seq > seq, oldest first
// (max <= 0 for all). Events evicted from the ring are gone; callers detect
// gaps by comparing the first returned Seq against seq+1.
func (s *Stream) Since(seq uint64, max int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for i := 0; i < s.size; i++ {
		e := s.buf[(s.start+i)%len(s.buf)]
		if e.Seq <= seq {
			continue
		}
		out = append(out, e)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// Len returns the number of retained events.
func (s *Stream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// LastSeq returns the sequence number of the most recently published event.
func (s *Stream) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}
