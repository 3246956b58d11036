package dkindex

import (
	"sync"
	"sync/atomic"
)

// maxBatch caps how many mutations one group commit carries. A client batch
// larger than the cap still commits as one group: client batches are never
// split.
const maxBatch = 128

// batcher is the write pipeline's queue, and natural group commit is the only
// way an Index commits. Submitters assign sequence numbers and enqueue under
// mu, so queue order is sequence order. The submitter that finds no commit in
// progress becomes the committer: a synchronous one commits inline until its
// own batch has settled and then hands any remaining queue to a goroutine; an
// asynchronous one starts that goroutine at once. The committer drains the
// queue in FIFO groups — whatever queued while the previous commit ran forms
// the next group, adding no latency — and gives the role up only on an empty
// queue, so there is never more than one and commit order is sequence order.
type batcher struct {
	mu    sync.Mutex
	idle  sync.Cond             // broadcast when busy clears; L is &mu (newIndex)
	queue [][]*preparedMutation // client batches; queue[head:] still pending
	head  int
	busy  bool // a committer holds the role
}

// submitPrepared enqueues one client batch as an unsplittable group and, when
// wait is set, returns only once it has settled. Every mutation reaches
// commitLocked through here and drain (TestOneCommitPath).
func (x *Index) submitPrepared(ps []*preparedMutation, wait bool) {
	b := &x.batch
	committer := b.push(ps, &x.mutSeq)
	switch {
	case !committer:
		if wait {
			<-ps[0].done
		}
	case !wait:
		go x.drain(0)
	default:
		x.drain(ps[len(ps)-1].seq)
		b.mu.Lock()
		handOff := !b.releaseIfEmpty()
		b.mu.Unlock()
		if handOff {
			go x.drain(0)
		}
	}
}

// drain is the committer's loop: it takes group after group off the queue and
// settles each through commitLocked. It returns when the queue is empty,
// giving the role up, or — for a synchronous committer, until > 0 — once the
// group holding sequence number until has settled, keeping the role for its
// caller to hand on.
func (x *Index) drain(until uint64) {
	for {
		x.mu.Lock()
		g := x.batch.next()
		if g == nil {
			x.mu.Unlock()
			return
		}
		x.commitLocked(g)
		x.mu.Unlock()
		for i, p := range g { // a client batch is contiguous and shares one channel
			if i == len(g)-1 || g[i+1].done != p.done {
				close(p.done)
			}
		}
		if until > 0 && g[len(g)-1].seq >= until {
			return
		}
	}
}

// push numbers one client batch from seq and enqueues it, reporting whether
// the caller takes the committer role.
func (b *batcher) push(ps []*preparedMutation, seq *atomic.Uint64) (committer bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range ps {
		p.seq = seq.Add(1)
	}
	b.queue = append(b.queue, ps)
	committer = !b.busy
	b.busy = true
	return committer
}

// next pops the next group commit: whole client batches up to maxBatch
// mutations, always at least one batch. On an empty queue it gives the
// committer role up and returns nil. Once more than half of the queue has
// been consumed, the pending tail moves to the front, so a queue that never
// empties — writers submitting while each group commits — stays as long as
// its backlog.
func (b *batcher) next() []*preparedMutation {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.releaseIfEmpty() {
		return nil
	}
	end, n := b.head+1, len(b.queue[b.head])
	for end < len(b.queue) && n+len(b.queue[end]) <= maxBatch {
		n += len(b.queue[end])
		end++
	}
	var g []*preparedMutation
	if end == b.head+1 {
		g = b.queue[b.head] // a lone client batch commits as it came
	} else {
		g = make([]*preparedMutation, 0, n)
		for _, ps := range b.queue[b.head:end] {
			g = append(g, ps...)
		}
	}
	clear(b.queue[b.head:end])
	b.head = end
	if b.head > len(b.queue)/2 {
		live := copy(b.queue, b.queue[b.head:])
		clear(b.queue[live:])
		b.queue, b.head = b.queue[:live], 0
	}
	return g
}

// releaseIfEmpty gives the committer role up when nothing is pending,
// reporting whether it did. The queue's backing array is kept for the next
// batches. Callers hold mu.
func (b *batcher) releaseIfEmpty() bool {
	if b.head < len(b.queue) {
		return false
	}
	b.queue, b.head = b.queue[:0], 0
	b.busy = false
	b.idle.Broadcast()
	return true
}

// waitIdle returns once no commit is in progress and nothing is queued, so
// every mutation accepted before the call has settled — and, on a
// store-managed index, is in the log.
func (b *batcher) waitIdle() {
	b.mu.Lock()
	for b.busy {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// BatchOptions is kept only for benchmark/workloads.go; it configures nothing.
type BatchOptions struct{}

// StartBatching is kept only for benchmark/workloads.go: every Index
// group-commits, so there is nothing to arm.
func (x *Index) StartBatching(BatchOptions) error { return nil }

// StopBatching is kept only for benchmark/workloads.go: it waits until every
// accepted mutation has settled.
func (x *Index) StopBatching() { x.batch.waitIdle() }
