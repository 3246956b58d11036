// Command dkserve serves a D(k)-index over HTTP with a JSON API under /v1:
// path, regular-path-expression and branching (twig) queries through
// /v1/query, and every write — incremental edge and document updates, the
// promote/demote/optimize maintenance operations — through /v1/mutate
// (/v1/documents takes a raw XML body).
//
// Usage:
//
//	dkserve -in doc.xml -req title=2 -addr :8080
//	dkserve -index doc.dkx -addr :8080 -pprof -trace-sample 16 -cache 8192
//	dkserve -in doc.xml -data-dir /var/lib/dk -checkpoint-interval 30s
//
// With -data-dir every mutation is write-ahead logged before it is
// acknowledged and folded into checksummed checkpoints in the background; on
// restart the directory is recovered (newest readable checkpoint + log
// replay) and -in/-index/-req/-tune are ignored in favor of the durable
// state. Repeated checkpoint failures shut the process down with a non-zero
// exit instead of serving with silently degraded durability.
//
// A durable primary (-data-dir) also serves a replication feed under
// /v1/repl/*; a second dkserve started with -replicate-from=<primary URL>
// becomes a read-only replica: it bootstraps from the primary's newest
// checkpoint, tails its WAL, answers reads with an X-Replica-Lag-Seq header,
// rejects writes with a structured read_only error, and fails /v1/readyz
// (while continuing to serve) once its lag exceeds -max-lag.
//
//	dkserve -in doc.xml -data-dir /var/lib/dk -addr :8080
//	dkserve -replicate-from http://127.0.0.1:8080 -max-lag 1000 -addr :8081
//
// Writes go through the index's group-commit pipeline: concurrent mutations
// coalesce into one WAL group frame (a single fsync) and one snapshot swap.
//
//	curl 'localhost:8080/v1/query?q=director.movie.title'
//	curl 'localhost:8080/v1/query?kind=twig&q=movie[actor].title'
//	curl -X POST localhost:8080/v1/query -d '{"queries":[{"q":"director.movie.title"}]}'
//	curl -X POST localhost:8080/v1/mutate -d '{"op":"promote","label":"title","k":3}'
//	curl -X POST localhost:8080/v1/mutate -d '{"mutations":[{"op":"add_edge","from":3,"to":9},{"op":"promote","label":"title","k":2}]}'
//	curl -X POST localhost:8080/v1/documents --data-binary @more.xml
//	curl 'localhost:8080/v1/watermark'
//	curl 'localhost:8080/v1/metrics'
//	curl 'localhost:8080/v1/events?n=20'
//
// The process logs one structured line per request, serves Prometheus
// metrics on /v1/metrics and the index lifecycle event stream on /v1/events,
// and shuts down gracefully on SIGINT/SIGTERM — in-flight requests drain and
// a final metrics snapshot is flushed to the log. See internal/server for
// the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dkindex"
	"dkindex/internal/obs"
	"dkindex/internal/replica"
	"dkindex/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run wires setup, the listener and the signal-aware serve loop; split from
// main so tests can drive the full lifecycle in-process.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, code := setup(args, stdout, stderr)
	if code != 0 {
		return code
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		cfg.logger.Error("listen failed", "addr", cfg.addr, "err", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, ln, cfg)
}

// config is everything setup hands to the serve loop.
type config struct {
	addr     string
	handler  http.Handler
	logger   *slog.Logger
	observer *obs.Observer

	// Durability: store is non-nil when -data-dir armed the write-ahead log;
	// ckptEvery > 0 runs the background checkpoint loop.
	store     *dkindex.Store
	ckptEvery time.Duration

	// repl is non-nil when -replicate-from made this process a read-only
	// follower; serve runs its tail loop alongside the HTTP server.
	repl *replica.Replica

	// ckptRetry overrides the checkpoint retry schedule; zero fields fall
	// back to the production constants. Tests shrink it to exercise the
	// backoff and escalation paths in milliseconds.
	ckptRetry ckptRetryPolicy

	// HTTP hygiene.
	readHeaderTimeout time.Duration
	idleTimeout       time.Duration

	// rtEvery > 0 polls runtime telemetry (goroutines, heap, GC pauses,
	// snapshot age) into the registry at that interval.
	rtEvery time.Duration

	// ready backs /v1/readyz: true once setup finished, false again the moment
	// a shutdown starts draining, so load balancers stop routing here first.
	ready atomic.Bool
}

// setup parses flags, loads and tunes the index, and returns the ready
// configuration; a non-zero code aborts startup.
func setup(args []string, stdout, stderr io.Writer) (*config, int) {
	fs := flag.NewFlagSet("dkserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		in          = fs.String("in", "", "XML input file")
		load        = fs.String("index", "", "load a previously saved index")
		req         = fs.String("req", "", "per-label requirements, e.g. title=2,name=1")
		tune        = fs.Int("tune", 0, "tune with a sampled workload of N queries")
		seed        = fs.Int64("seed", 1, "seed for -tune")
		pprofOn     = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		traceSample = fs.Int("trace-sample", 64, "sample 1 query in N for tracing (0 disables)")
		cacheSize   = fs.Int("cache", dkindex.DefaultResultCacheSize, "result cache capacity in entries (0 disables)")

		dataDir     = fs.String("data-dir", "", "durable store directory (WAL + checkpoints); recovered on start, created from -in/-index when empty")
		ckptEvery   = fs.Duration("checkpoint-interval", time.Minute, "background checkpoint interval with -data-dir (0 disables)")
		maxInflight = fs.Int("max-inflight", 0, "bound on concurrently served requests; excess shed with 503 (0 = unbounded)")
		rtEvery     = fs.Duration("runtime-interval", 10*time.Second, "runtime telemetry poll interval (goroutines, heap, GC pauses; 0 disables)")
		readHdrTO   = fs.Duration("read-header-timeout", 5*time.Second, "bound on reading a request's headers (0 disables)")
		idleTO      = fs.Duration("idle-timeout", 2*time.Minute, "bound on idle keep-alive connections (0 disables)")

		replFrom = fs.String("replicate-from", "", "run as a read-only replica of the primary at this base URL (e.g. http://primary:8080)")
		maxLag   = fs.Uint64("max-lag", 0, "replica staleness bound in global sequences: /v1/readyz fails past it while reads keep serving (0 = always ready once bootstrapped)")
		bootTO   = fs.Duration("bootstrap-timeout", 30*time.Second, "bound on the replica's initial checkpoint bootstrap from the primary")
	)
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	observer := obs.NewObserverWith(obs.NewRegistry(), obs.NewStream(256), obs.NewTracer(*traceSample, 32))

	// Replica mode: bootstrap from the primary's replication feed instead of
	// any local source, serve read-only, and gate readiness on the lag bound.
	if *replFrom != "" {
		if *dataDir != "" {
			fmt.Fprintln(stderr, "dkserve: -replicate-from and -data-dir are mutually exclusive (a replica follows the primary's durability)")
			return nil, 2
		}
		if *in != "" || *load != "" {
			logger.Warn("replica bootstraps from the primary; -in/-index ignored")
		}
		primary := strings.TrimRight(*replFrom, "/")
		rep := replica.New(replica.Config{
			Primary:  primary,
			Observer: observer,
			MaxLag:   *maxLag,
		})
		bctx, cancel := context.WithTimeout(context.Background(), *bootTO)
		err := rep.Bootstrap(bctx)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "dkserve: bootstrap from %s: %v\n", primary, err)
			return nil, 1
		}
		idx := rep.Index()
		if *cacheSize != dkindex.DefaultResultCacheSize {
			idx.SetResultCache(*cacheSize)
		}
		srv := server.New(idx)
		if *pprofOn {
			srv.EnablePprof()
		}
		srv.SetMaxInFlight(*maxInflight)
		srv.SetReplicaMode(primary, rep.Status)
		cfg := &config{
			addr:              *addr,
			logger:            logger,
			observer:          observer,
			repl:              rep,
			readHeaderTimeout: *readHdrTO,
			idleTimeout:       *idleTO,
			rtEvery:           *rtEvery,
		}
		srv.SetReadyCheck(func() error {
			if !cfg.ready.Load() {
				return fmt.Errorf("not serving (starting up or draining)")
			}
			return rep.Ready()
		})
		cfg.handler = logRequests(srv, logger)
		cfg.ready.Store(true)
		s := idx.Stats()
		fmt.Fprintf(stdout, "dkserve: replica of %s, %d data nodes, index %d nodes (max k=%d), listening on %s\n",
			primary, s.DataNodes, s.IndexNodes, s.MaxK, *addr)
		return cfg, 0
	}

	// A directory an earlier, sharded dkserve wrote keeps its documents under
	// shard-NNN/ beside its shard map, where no store is found: serving it
	// would start a fresh, empty store next to them.
	if *dataDir != "" {
		if _, err := os.Stat(filepath.Join(*dataDir, "shardmap.json")); err == nil {
			fmt.Fprintf(stderr, "dkserve: %s holds a sharded store (shardmap.json); sharded directories are no longer served\n", *dataDir)
			return nil, 2
		}
	}

	var (
		idx   *dkindex.Index
		store *dkindex.Store
		rep   *dkindex.LoadReport
		err   error
	)
	haveStore := *dataDir != "" && dkindex.StoreExists(nil, *dataDir)
	switch {
	case haveStore:
		// The durable state wins over -in/-index: recovery replays the
		// newest checkpoint plus its write-ahead log chain.
		if *in != "" || *load != "" {
			logger.Warn("existing store takes precedence; -in/-index ignored", "dataDir", *dataDir)
		}
		var rec *dkindex.RecoveryReport
		store, rec, err = dkindex.OpenStore(*dataDir, &dkindex.StoreOptions{Observer: observer})
		if err == nil {
			idx = store.Index()
			logger.Info("store recovered",
				"checkpoint", rec.Checkpoint,
				"epoch", rec.Epoch,
				"replayed", rec.Replayed,
				"truncatedTail", rec.TruncatedTail,
				"chainBroken", rec.ChainBroken,
				"corruptCheckpoints", strings.Join(rec.CorruptCheckpoints, ","))
		}
	case *load != "":
		idx, err = dkindex.OpenFile(*load)
	case *in != "":
		var f *os.File
		if f, err = os.Open(*in); err == nil {
			idx, rep, err = dkindex.LoadXMLWithReport(f, nil)
			f.Close()
		}
	default:
		fmt.Fprintln(stderr, "dkserve: one of -in or -index is required")
		return nil, 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "dkserve: %v\n", err)
		return nil, 1
	}
	idx.Observe(observer)
	if *cacheSize != dkindex.DefaultResultCacheSize {
		idx.SetResultCache(*cacheSize)
	}
	if rep != nil && len(rep.DanglingRefs) > 0 {
		observer.AddDanglingRefs(len(rep.DanglingRefs))
		logger.Warn("document has dangling IDREF references",
			"count", len(rep.DanglingRefs),
			"refs", strings.Join(firstN(rep.DanglingRefs, 5), ","))
	}
	// Tuning applies only to fresh indexes: a recovered store's requirements
	// are part of its durable state and re-tuning every restart would drift.
	if haveStore {
		if *tune > 0 || *req != "" {
			logger.Warn("store carries its own tuned requirements; -tune/-req ignored")
		}
	} else if *tune > 0 {
		if err := idx.Tune(*tune, *seed); err != nil {
			fmt.Fprintf(stderr, "dkserve: %v\n", err)
			return nil, 1
		}
	} else if *req != "" {
		reqs, err := dkindex.ParseRequirements(*req)
		if err != nil {
			fmt.Fprintf(stderr, "dkserve: %v\n", err)
			return nil, 1
		}
		if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: reqs}); err != nil {
			fmt.Fprintf(stderr, "dkserve: %v\n", err)
			return nil, 1
		}
	}
	// A fresh store is created only after tuning so checkpoint 0 already
	// carries the requirements and the log starts empty.
	if *dataDir != "" && store == nil {
		store, err = dkindex.CreateStore(*dataDir, idx, &dkindex.StoreOptions{Observer: observer})
		if err != nil {
			fmt.Fprintf(stderr, "dkserve: %v\n", err)
			return nil, 1
		}
		logger.Info("store created", "dataDir", *dataDir)
	}
	srv := server.New(idx)
	if *pprofOn {
		srv.EnablePprof()
	}
	srv.SetMaxInFlight(*maxInflight)
	if store != nil {
		// A durable primary serves the replication feed: replicas bootstrap
		// from /v1/repl/checkpoint and tail /v1/repl/wal.
		srv.SetReplSource(store)
	}
	cfg := &config{
		addr:              *addr,
		logger:            logger,
		observer:          observer,
		store:             store,
		ckptEvery:         *ckptEvery,
		readHeaderTimeout: *readHdrTO,
		idleTimeout:       *idleTO,
		rtEvery:           *rtEvery,
	}
	srv.SetReadyCheck(func() error {
		if !cfg.ready.Load() {
			return fmt.Errorf("not serving (starting up or draining)")
		}
		return nil
	})
	cfg.handler = logRequests(srv, logger)
	cfg.ready.Store(true)
	s := idx.Stats()
	fmt.Fprintf(stdout, "dkserve: %d data nodes, index %d nodes (max k=%d), listening on %s\n",
		s.DataNodes, s.IndexNodes, s.MaxK, *addr)
	return cfg, 0
}

func firstN(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// shutdownGrace bounds how long in-flight requests may drain after a
// termination signal.
const shutdownGrace = 10 * time.Second

// Background checkpoint failures retry with capped exponential backoff (the
// log chain keeps every acknowledged mutation durable meanwhile) rather than
// waiting for the next tick; maxCheckpointFailures consecutive failures still
// shut the process down non-zero — a server that can no longer persist is
// degraded in a way an operator must see, not paper over.
const (
	maxCheckpointFailures  = 8
	checkpointBackoffFloor = 250 * time.Millisecond
	checkpointBackoffCap   = 30 * time.Second
)

// ckptRetryPolicy is the checkpoint retry schedule; zero fields mean the
// production constants above.
type ckptRetryPolicy struct {
	floor, cap  time.Duration
	maxFailures int
}

func (p ckptRetryPolicy) normalized() ckptRetryPolicy {
	if p.floor <= 0 {
		p.floor = checkpointBackoffFloor
	}
	if p.cap <= 0 {
		p.cap = checkpointBackoffCap
	}
	if p.maxFailures <= 0 {
		p.maxFailures = maxCheckpointFailures
	}
	return p
}

// serve runs the HTTP server on ln until it fails, ctx is cancelled (the
// signal path), or durability is lost (repeated checkpoint failures). On the
// way out in-flight requests drain within shutdownGrace, a final checkpoint
// captures the log's tail, and a final metrics snapshot is flushed to the log.
func serve(ctx context.Context, ln net.Listener, cfg *config) int {
	hs := &http.Server{
		Handler:           cfg.handler,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	// Runtime telemetry: goroutines, heap, GC pauses and snapshot age, polled
	// into the same registry /metrics serves.
	stopRT := make(chan struct{})
	var rtWG sync.WaitGroup
	if cfg.rtEvery > 0 {
		rtWG.Add(1)
		go func() {
			defer rtWG.Done()
			obs.NewRuntime(cfg.observer).Run(stopRT, cfg.rtEvery)
		}()
	}

	fatal := make(chan error, 1)
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	if cfg.store != nil && cfg.ckptEvery > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			checkpointLoop(cfg, stopCkpt, fatal)
		}()
	}

	// Replica mode: the tail loop runs alongside the HTTP server, stopped on
	// every shutdown path (its own context rather than ctx, which only the
	// signal path cancels).
	rctx, stopRepl := context.WithCancel(ctx)
	defer stopRepl()
	var replWG sync.WaitGroup
	if cfg.repl != nil {
		replWG.Add(1)
		go func() {
			defer replWG.Done()
			_ = cfg.repl.Run(rctx)
		}()
	}

	shutdown := func(code int) int {
		cfg.ready.Store(false)
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			cfg.logger.Error("shutdown did not drain cleanly", "err", err)
			code = 1
		}
		close(stopRT)
		rtWG.Wait()
		close(stopCkpt)
		ckptWG.Wait()
		stopRepl()
		replWG.Wait()
		if cfg.store != nil {
			// Capture mutations still only in the log as a final checkpoint,
			// so the next start replays nothing on the happy path.
			if cfg.store.Appended() > 0 {
				if err := cfg.store.Checkpoint(); err != nil {
					cfg.logger.Error("final checkpoint failed (log chain still recovers on restart)", "err", err)
					code = 1
				}
			}
			if err := cfg.store.Close(); err != nil {
				cfg.logger.Error("store close failed", "err", err)
				code = 1
			}
		}
		flushFinalMetrics(cfg)
		return code
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cfg.logger.Error("server failed", "err", err)
			return shutdown(1)
		}
		return shutdown(0)
	case <-ctx.Done():
		cfg.logger.Info("shutdown signal received, draining requests", "grace", shutdownGrace)
		return shutdown(0)
	case err := <-fatal:
		cfg.logger.Error("durability lost, shutting down", "err", err)
		return shutdown(1)
	}
}

// checkpointLoop periodically folds the write-ahead log into a fresh
// checkpoint. A quiet index (no appended records) skips the cycle. A failed
// checkpoint schedules a retry with capped exponential backoff (each attempt
// emits a checkpoint_retry event); only maxCheckpointFailures consecutive
// failures escalate to fatal.
func checkpointLoop(cfg *config, stop <-chan struct{}, fatal chan<- error) {
	pol := cfg.ckptRetry.normalized()
	t := time.NewTicker(cfg.ckptEvery)
	defer t.Stop()
	failures := 0
	backoff := pol.floor
	var retry <-chan time.Time // non-nil while a backoff retry is pending
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if retry != nil || cfg.store.Appended() == 0 {
				continue
			}
		case <-retry:
			retry = nil
		}
		if err := cfg.store.Checkpoint(); err != nil {
			failures++
			if failures >= pol.maxFailures {
				cfg.logger.Error("checkpoint failed", "err", err, "consecutive", failures)
				fatal <- fmt.Errorf("%d consecutive checkpoint failures, last: %w", failures, err)
				return
			}
			cfg.logger.Warn("checkpoint failed, retrying with backoff",
				"err", err, "consecutive", failures, "backoff", backoff)
			cfg.observer.RecordEvent(obs.Event{
				Type: obs.EventCheckpointRetry,
				Detail: fmt.Sprintf("attempt %d/%d failed: %v; next try in %v",
					failures, pol.maxFailures, err, backoff),
			})
			retry = time.After(backoff)
			backoff = min(2*backoff, pol.cap)
			continue
		}
		failures, backoff = 0, pol.floor
		cfg.logger.Info("checkpoint written", "epoch", cfg.store.Epoch())
	}
}

// flushFinalMetrics renders the registry one last time into the log so the
// process's closing state survives after the /metrics endpoint is gone.
func flushFinalMetrics(cfg *config) {
	var sb strings.Builder
	if err := cfg.observer.Registry.WritePrometheus(&sb); err != nil {
		cfg.logger.Error("final metrics snapshot failed", "err", err)
		return
	}
	cfg.logger.Info("final metrics snapshot",
		"events", cfg.observer.Events.LastSeq(),
		"traces", cfg.observer.Tracer.Sampled(),
		"metrics", sb.String())
}

// statusWriter captures the response status and size for request logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// logRequests wraps h with one structured log line per request.
func logRequests(h http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		// The server's middleware stamps X-Request-ID on every /v1 response;
		// logging it links log lines to /v1/slow entries and sampled traces.
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"durMS", float64(time.Since(start).Microseconds())/1000,
			"requestID", sw.Header().Get("X-Request-ID"))
	})
}
