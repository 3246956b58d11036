// Package replica tails a primary's replication feed and maintains a local,
// read-only copy of its index.
//
// The protocol has two legs, both served by internal/server on the primary:
//
//	GET /v1/repl/checkpoint   bootstrap: the newest durable checkpoint plus
//	                          the global sequence to tail from
//	GET /v1/repl/wal?from=N   catch-up: acknowledged WAL frames re-sequenced
//	                          into the primary's per-boot global numbering
//
// The replica applies shipped records through the same Mutation pipeline the
// primary's recovery path uses, so its snapshots are bit-identical to the
// primary's at the same global sequence. Correctness never depends on the
// link behaving: every frame carries a CRC, a torn tail is simply re-fetched,
// a sequence-space change (the primary restarted) forces a fresh bootstrap,
// and an apply divergence — which should be impossible — is repaired the same
// way rather than trusted.
package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dkindex"
	"dkindex/internal/obs"
	"dkindex/internal/server"
	"dkindex/internal/wal"
)

// errStreamReset marks conditions that invalidate the replica's position in
// the primary's sequence space — a 410 from a pruned log, an instance change,
// or a local apply failure — and are repaired by bootstrapping again.
var errStreamReset = errors.New("replica: stream reset, bootstrap required")

// ErrNotBootstrapped is returned by Ready before the first successful
// bootstrap.
var ErrNotBootstrapped = errors.New("replica: not bootstrapped yet")

// Config parameterizes a Replica. Primary is required; everything else has a
// serviceable default.
type Config struct {
	// Primary is the primary's base URL, e.g. "http://127.0.0.1:7171".
	Primary string
	// Client issues the feed requests; nil for a default client. Per-request
	// deadlines come from RequestTimeout regardless.
	Client *http.Client
	// Observer receives the dk_repl_* gauges/counters and replica lifecycle
	// events; nil disables instrumentation.
	Observer *obs.Observer
	// PollInterval is the idle delay between tail requests once caught up
	// (default 50ms).
	PollInterval time.Duration
	// RequestTimeout bounds each feed request (default 10s).
	RequestTimeout time.Duration
	// MaxLag, when positive, is the staleness bound: Ready reports an error
	// (and the dk_repl_stale gauge flips) while the replica trails the
	// primary by more than this many global sequences. Serving never stops.
	MaxLag uint64
	// MinBackoff/MaxBackoff bound the exponential retry backoff after feed
	// errors (defaults 25ms and 2s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// ChunkBytes, when positive, is sent as &max= to bound each WAL response.
	ChunkBytes int
	// Seed feeds the backoff jitter; 0 seeds from the clock.
	Seed int64
}

// Replica is one read-only follower of a primary. Create with New, bootstrap
// with Bootstrap, then tail with Run; Index serves reads throughout.
type Replica struct {
	cfg    Config
	client *http.Client
	obs    *obs.Observer

	// idx is created once at the first bootstrap and reloaded in place on
	// every re-bootstrap, so handles given out by Index stay valid for the
	// replica's lifetime.
	idx          *dkindex.Index
	bootstrapped atomic.Bool

	applied atomic.Uint64 // last applied global sequence
	head    atomic.Uint64 // primary's head, as of the last feed response
	stale   atomic.Bool   // lag exceeds MaxLag
	caught  atomic.Bool   // reached the primary's head at least once

	retries    atomic.Uint64
	reconnects atomic.Uint64

	// instance and needBootstrap are only touched by the goroutine driving
	// Bootstrap/Run, never concurrently.
	instance      string
	needBootstrap bool

	jmu sync.Mutex
	rng *rand.Rand
}

// New returns an unbootstrapped replica for the given configuration.
func New(cfg Config) *Replica {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Replica{
		cfg:    cfg,
		client: client,
		obs:    cfg.Observer,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Index returns the replica's index; nil before the first successful
// bootstrap. The pointer is stable across re-bootstraps.
func (r *Replica) Index() *dkindex.Index {
	if !r.bootstrapped.Load() {
		return nil
	}
	return r.idx
}

// Applied returns the last applied global sequence.
func (r *Replica) Applied() uint64 { return r.applied.Load() }

// Head returns the primary's head global sequence as of the last response.
func (r *Replica) Head() uint64 { return r.head.Load() }

// Lag returns how many global sequences the replica trails the primary.
func (r *Replica) Lag() uint64 {
	if h, a := r.head.Load(), r.applied.Load(); h > a {
		return h - a
	}
	return 0
}

// Stale reports whether the lag currently exceeds the configured bound.
func (r *Replica) Stale() bool { return r.stale.Load() }

// Retries returns how many feed requests have failed and been retried.
func (r *Replica) Retries() uint64 { return r.retries.Load() }

// Reconnects returns how many times the stream was reset and re-bootstrapped.
func (r *Replica) Reconnects() uint64 { return r.reconnects.Load() }

// Status reports (applied, head) for the serving layer's lag header.
func (r *Replica) Status() (applied, head uint64) {
	return r.applied.Load(), r.head.Load()
}

// Ready is the /v1/readyz probe: nil once bootstrapped and within the
// staleness bound. A stale replica keeps serving reads — readiness is a
// load-balancer signal, not a gate on the data path.
func (r *Replica) Ready() error {
	if !r.bootstrapped.Load() {
		return ErrNotBootstrapped
	}
	if r.cfg.MaxLag > 0 {
		if lag := r.Lag(); lag > r.cfg.MaxLag {
			return fmt.Errorf("replica lag %d exceeds bound %d", lag, r.cfg.MaxLag)
		}
	}
	return nil
}

// Bootstrap fetches the primary's checkpoint and installs it, retrying with
// backoff until it succeeds or ctx ends. Must complete once before Run.
func (r *Replica) Bootstrap(ctx context.Context) error {
	backoff := r.cfg.MinBackoff
	for {
		err := r.bootstrapOnce(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.noteRetry(err)
		if !r.sleep(ctx, r.jitter(backoff)) {
			return ctx.Err()
		}
		backoff = min(2*backoff, r.cfg.MaxBackoff)
	}
}

// Run tails the feed until ctx ends, bootstrapping again whenever the stream
// resets. Transport errors retry with jittered exponential backoff; a caught-
// up replica polls at PollInterval. Returns ctx.Err().
func (r *Replica) Run(ctx context.Context) error {
	backoff := r.cfg.MinBackoff
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !r.bootstrapped.Load() || r.needBootstrap {
			if err := r.bootstrapOnce(ctx); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				r.noteRetry(err)
				if !r.sleep(ctx, r.jitter(backoff)) {
					return ctx.Err()
				}
				backoff = min(2*backoff, r.cfg.MaxBackoff)
				continue
			}
			r.needBootstrap = false
			backoff = r.cfg.MinBackoff
		}
		err := r.tailOnce(ctx)
		switch {
		case err == nil:
			backoff = r.cfg.MinBackoff
			if r.Lag() == 0 {
				if !r.sleep(ctx, r.cfg.PollInterval) {
					return ctx.Err()
				}
			}
		case errors.Is(err, errStreamReset):
			r.noteReconnect(err)
			r.needBootstrap = true
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			r.noteRetry(err)
			if !r.sleep(ctx, r.jitter(backoff)) {
				return ctx.Err()
			}
			backoff = min(2*backoff, r.cfg.MaxBackoff)
		}
	}
}

// get issues one deadline-bounded feed request and returns the fully read
// body plus selected headers. Reading to completion here keeps truncation
// handling in one place: a body that dies mid-transfer surfaces as readErr
// while the valid prefix is still returned for frame-by-frame salvage.
func (r *Replica) get(ctx context.Context, url string) (status int, hdr http.Header, body []byte, readErr error, err error) {
	rctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	defer resp.Body.Close()
	body, readErr = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, readErr, nil
}

func headerSeq(h http.Header, name string) (uint64, error) {
	v, err := strconv.ParseUint(h.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replica: bad %s header %q", name, h.Get(name))
	}
	return v, nil
}

// bootstrapOnce fetches /v1/repl/checkpoint and installs it: dkindex.Open on
// the first call, Index.Reload in place afterwards. On success the replica's
// position is the checkpoint's coverage and tailing resumes from there.
func (r *Replica) bootstrapOnce(ctx context.Context) error {
	status, hdr, body, readErr, err := r.get(ctx, r.cfg.Primary+"/v1/repl/checkpoint")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("replica: checkpoint fetch: HTTP %d", status)
	}
	if readErr != nil {
		return fmt.Errorf("replica: checkpoint body: %w", readErr)
	}
	inst := hdr.Get(server.HeaderReplInstance)
	if inst == "" {
		return fmt.Errorf("replica: checkpoint response missing %s", server.HeaderReplInstance)
	}
	next, err := headerSeq(hdr, server.HeaderReplNext)
	if err != nil {
		return err
	}
	if next == 0 {
		return fmt.Errorf("replica: checkpoint reports zero next sequence")
	}
	head, err := headerSeq(hdr, server.HeaderReplHead)
	if err != nil {
		return err
	}
	if r.idx == nil {
		idx, err := dkindex.Open(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("replica: open checkpoint: %w", err)
		}
		if r.obs != nil {
			idx.Observe(r.obs)
		}
		r.idx = idx
	} else if err := r.idx.Reload(bytes.NewReader(body)); err != nil {
		return fmt.Errorf("replica: reload checkpoint: %w", err)
	}
	r.instance = inst
	r.applied.Store(next - 1)
	r.head.Store(head)
	r.caught.Store(false)
	r.bootstrapped.Store(true)
	r.obs.SetReplProgress(next-1, head)
	r.obs.RecordEvent(obs.Event{
		Type:   obs.EventReplBootstrap,
		Detail: fmt.Sprintf("instance %s epoch %s next %d head %d", inst, hdr.Get(server.HeaderReplEpoch), next, head),
	})
	r.updateFreshness()
	return nil
}

// tailOnce fetches one WAL chunk at applied+1 and applies every complete
// frame in it. Divergence conditions return errStreamReset; transport-level
// trouble returns an ordinary error for the backoff path. A chunk whose tail
// is torn applies its valid prefix — progress is kept, the remainder is
// re-fetched.
func (r *Replica) tailOnce(ctx context.Context) error {
	from := r.applied.Load() + 1
	url := r.cfg.Primary + "/v1/repl/wal?from=" + strconv.FormatUint(from, 10)
	if r.cfg.ChunkBytes > 0 {
		url += "&max=" + strconv.Itoa(r.cfg.ChunkBytes)
	}
	status, hdr, body, readErr, err := r.get(ctx, url)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
	case http.StatusGone:
		return fmt.Errorf("%w: position %d pruned on the primary", errStreamReset, from)
	default:
		return fmt.Errorf("replica: wal fetch: HTTP %d", status)
	}
	if inst := hdr.Get(server.HeaderReplInstance); inst != r.instance {
		return fmt.Errorf("%w: primary instance changed (%s -> %s)", errStreamReset, r.instance, inst)
	}
	head, err := headerSeq(hdr, server.HeaderReplHead)
	if err != nil {
		return err
	}
	first, err := headerSeq(hdr, server.HeaderReplFrom)
	if err != nil {
		return err
	}
	r.head.Store(head)
	if applyErr := r.applyChunk(body, first); applyErr != nil {
		return fmt.Errorf("%w: %v", errStreamReset, applyErr)
	}
	r.obs.SetReplProgress(r.applied.Load(), head)
	r.updateFreshness()
	if readErr != nil {
		return fmt.Errorf("replica: wal body: %w", readErr)
	}
	return nil
}

// applyChunk walks the chunk's frames and applies each complete one. The
// chunk is the WAL file format; an unparsable tail (CRC mismatch, short
// frame) ends the walk without error — that is what a truncated transfer
// looks like, and the next fetch resumes exactly there. Errors mean the
// shipped data applied wrong, which only a re-bootstrap repairs.
func (r *Replica) applyChunk(data []byte, first uint64) error {
	if len(data) < wal.HeaderSize || first == 0 {
		return nil
	}
	if err := wal.CheckHeader(data); err != nil {
		return err
	}
	off := wal.HeaderSize
	prev := first - 1
	for {
		recs, end, ok := wal.ParseFrame(data, off, prev)
		if !ok || len(recs) == 0 {
			return nil
		}
		off = end
		prev = recs[len(recs)-1].Seq
		if err := r.applyFrame(recs); err != nil {
			return err
		}
	}
}

// applyFrame applies one frame — a single record or a whole group — through
// the same pipeline recovery uses: its records decode to Mutations and commit
// as one ApplyBatch (one commit, one generation bump, atomic like the frame
// itself). Members at or below the applied watermark (a group the primary
// rounded down to ship whole) are skipped.
func (r *Replica) applyFrame(recs []wal.Record) error {
	applied := r.applied.Load()
	for len(recs) > 0 && recs[0].Seq <= applied {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return nil
	}
	ms := make([]dkindex.Mutation, len(recs))
	for i, rec := range recs {
		m, err := dkindex.DecodeWALMutation(rec.Op, rec.Payload)
		if err != nil {
			return fmt.Errorf("decode seq %d: %w", rec.Seq, err)
		}
		ms[i] = m
	}
	acks, err := r.idx.ApplyBatch(ms)
	if err != nil {
		return fmt.Errorf("apply seqs %d-%d: %w", recs[0].Seq, recs[len(recs)-1].Seq, err)
	}
	for i, a := range acks {
		if a.Err != nil {
			return fmt.Errorf("apply seq %d: %w", recs[i].Seq, a.Err)
		}
	}
	r.applied.Store(recs[len(recs)-1].Seq)
	return nil
}

// updateFreshness re-evaluates catch-up and staleness after a position
// change, emitting transition events and flipping the dk_repl_stale gauge.
func (r *Replica) updateFreshness() {
	lag := r.Lag()
	if lag == 0 && r.caught.CompareAndSwap(false, true) {
		r.obs.RecordEvent(obs.Event{
			Type:   obs.EventReplCaughtUp,
			Detail: fmt.Sprintf("applied %d", r.applied.Load()),
		})
	}
	if r.cfg.MaxLag == 0 {
		return
	}
	if lag > r.cfg.MaxLag {
		if r.stale.CompareAndSwap(false, true) {
			r.obs.SetReplStale(true)
			r.obs.RecordEvent(obs.Event{
				Type:   obs.EventReplStale,
				Detail: fmt.Sprintf("lag %d exceeds bound %d", lag, r.cfg.MaxLag),
			})
		}
	} else if r.stale.CompareAndSwap(true, false) {
		r.obs.SetReplStale(false)
		r.obs.RecordEvent(obs.Event{
			Type:   obs.EventReplFresh,
			Detail: fmt.Sprintf("lag %d within bound %d", lag, r.cfg.MaxLag),
		})
	}
}

func (r *Replica) noteRetry(err error) {
	r.retries.Add(1)
	r.obs.ObserveReplRetry()
	_ = err
}

func (r *Replica) noteReconnect(err error) {
	r.reconnects.Add(1)
	r.obs.ObserveReplReconnect()
	r.obs.RecordEvent(obs.Event{Type: obs.EventReplReconnect, Detail: err.Error()})
}

// jitter spreads a backoff delay over [d/2, d) so a fleet of replicas does
// not reconnect in lockstep.
func (r *Replica) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	r.jmu.Lock()
	defer r.jmu.Unlock()
	return d/2 + time.Duration(r.rng.Int63n(int64(d/2)))
}

// sleep waits for d or ctx, whichever ends first; false means ctx ended.
func (r *Replica) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
