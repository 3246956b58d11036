package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one retained slow request. The cost counters are the paper's
// per-query model, copied verbatim from the evaluation; RequestID links the
// entry to the client's logs (the server echoes it as X-Request-ID) and — when
// Traced is set — to the /traces entry whose Origin carries the same ID.
type SlowEntry struct {
	Time      time.Time     `json:"time"`
	RequestID string        `json:"requestId,omitempty"`
	Route     string        `json:"route"`
	Method    string        `json:"method,omitempty"`
	Kind      string        `json:"kind"`
	Query     string        `json:"query"`
	Status    int           `json:"status"`
	Duration  time.Duration `json:"durationNS"`

	CacheHit   bool   `json:"cacheHit"`
	Traced     bool   `json:"traced"`
	Generation uint64 `json:"generation"`

	IndexNodesVisited  int `json:"indexNodesVisited"`
	DataNodesValidated int `json:"dataNodesValidated"`
	Validations        int `json:"validations"`
	Results            int `json:"results"`
}

// SlowLog retains the top-capacity slowest requests seen so far: a bounded
// min-heap keyed by duration, so an offered request only displaces the
// current floor when it is slower. Once the log is full, a request no slower
// than the floor — nearly every request — is turned away on two atomics,
// without the mutex that guards the heap; the query path stays lock-free. A
// nil *SlowLog accepts every call and does nothing, matching the package's
// nil-safe convention.
type SlowLog struct {
	offered atomic.Uint64
	// floor is heap[0].Duration once the heap is full and notFull before.
	// It is written under mu and never falls, so a request rejected against
	// a value read without mu would be rejected against the current one too.
	floor atomic.Int64

	mu   sync.Mutex
	heap []SlowEntry // min-heap by Duration; heap[0] is the floor
	cap  int
}

// notFull is the floor of a log with room: below every duration.
const notFull = math.MinInt64

// DefaultSlowLogSize is the slow-log capacity an Observer starts with.
const DefaultSlowLogSize = 64

// NewSlowLog returns a log retaining the capacity slowest requests
// (minimum 1).
func NewSlowLog(capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	l := &SlowLog{cap: capacity}
	l.floor.Store(notFull)
	return l
}

// Add offers one request to the log. Requests no slower than the floor of a
// full log are rejected in O(1) without taking a lock; admissions are
// O(log capacity) under the mutex.
func (l *SlowLog) Add(e SlowEntry) {
	if l == nil {
		return
	}
	l.offered.Add(1)
	if int64(e.Duration) <= l.floor.Load() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.heap) < l.cap {
		l.heap = append(l.heap, e)
		l.siftUp(len(l.heap) - 1)
	} else {
		if e.Duration <= l.heap[0].Duration { // the floor rose while we waited
			return
		}
		l.heap[0] = e
		l.siftDown(0)
	}
	if len(l.heap) == l.cap {
		l.floor.Store(int64(l.heap[0].Duration))
	}
}

// Floor returns the duration a request must exceed to enter a full log
// (zero while the log still has room).
func (l *SlowLog) Floor() time.Duration {
	if l == nil {
		return 0
	}
	if f := l.floor.Load(); f != notFull {
		return time.Duration(f)
	}
	return 0
}

// Offered returns how many requests were offered to the log.
func (l *SlowLog) Offered() uint64 {
	if l == nil {
		return 0
	}
	return l.offered.Load()
}

// Snapshot returns the retained entries, slowest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]SlowEntry(nil), l.heap...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

func (l *SlowLog) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if l.heap[p].Duration <= l.heap[i].Duration {
			return
		}
		l.heap[p], l.heap[i] = l.heap[i], l.heap[p]
		i = p
	}
}

func (l *SlowLog) siftDown(i int) {
	n := len(l.heap)
	for {
		least := i
		if c := 2*i + 1; c < n && l.heap[c].Duration < l.heap[least].Duration {
			least = c
		}
		if c := 2*i + 2; c < n && l.heap[c].Duration < l.heap[least].Duration {
			least = c
		}
		if least == i {
			return
		}
		l.heap[i], l.heap[least] = l.heap[least], l.heap[i]
		i = least
	}
}
