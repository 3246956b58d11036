package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"dkindex"
	"dkindex/internal/fsx"
	"dkindex/internal/server"
)

// sizes is everything that scales a run. The full size is the benchmark; the
// smoke size exists for the tests.
type sizes struct {
	scale    float64
	edgePool int
	docPool  int
	smoke    bool
}

var (
	fullSizes  = sizes{scale: 1.0, edgePool: 48, docPool: 96}
	smokeSizes = sizes{scale: 0.05, edgePool: 32, docPool: 24, smoke: true}
)

// target is one set-up of the system under test: the handler the driver
// calls, and what has to be closed afterwards.
type target struct {
	h     http.Handler
	idx   *dkindex.Index
	store *dkindex.Store
	dir   string // this set-up's store directory, "" without a store
}

// close stops the committer and closes the store, the way dkserve shuts down.
func (t *target) close() error {
	t.idx.StopBatching()
	if t.store != nil {
		return t.store.Close()
	}
	return nil
}

// setupEnv is what a set-up may use: the prepared inputs, a scratch
// directory of its own, and the tracing hooks of a traced run (nil otherwise).
type setupEnv struct {
	inputs string // the prepared inputs, read-only
	runDir string // this run's scratch directory
	p      *prepared
	xml    []byte
	reads  []*http.Request // the plan's reads, built once
	dir    string          // fresh directory for this set-up's store
	tr     *tracer
	fs     *countingFS
}

// handler wraps the index the way dkserve does; a traced run serves the
// span-recording backend instead of the bare index.
func (e *setupEnv) handler(idx *dkindex.Index) http.Handler {
	if e.tr != nil {
		return server.NewBackend(tracedBackend{Index: idx, tr: e.tr})
	}
	return server.New(idx)
}

func (e *setupEnv) storeOptions() *dkindex.StoreOptions {
	if e.fs != nil {
		return &dkindex.StoreOptions{FS: e.fs}
	}
	return nil
}

// loadTuned is dkserve -in data.xml -req <mined requirements>: parse, build
// the label-split index, rebuild it for the requirements.
func loadTuned(e *setupEnv) (*dkindex.Index, error) {
	idx, err := dkindex.LoadXML(bytes.NewReader(e.xml), nil)
	if err != nil {
		return nil, err
	}
	if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: e.p.Reqs}); err != nil {
		return nil, err
	}
	return idx, nil
}

// workload is one traffic mix. Its set-up is what setup_s times; its op list
// is what the rounds execute. Every workload is a closed loop with one client.
type workload struct {
	name string
	why  string
	// readOnly says no op changes the index, so every read of a plan op must
	// return the same number of bytes.
	readOnly bool
	// pristine says set-up leaves the index in the state of data.xml, so the
	// plan's oracle counts from preparation apply to it.
	pristine bool
	// checkpoint says the store is checkpointed between rounds, outside the
	// timed part, as dkserve's checkpoint loop would.
	checkpoint bool
	// stage, when set, runs untimed before setup (copying a prepared
	// directory is the benchmark's work, not the program's).
	stage func(e *setupEnv) error
	setup func(e *setupEnv) (*target, error)
	ops   func(p *prepared, sz sizes, seed int64) *opList
}

const (
	// secondsPerRound turns -seconds into a number of rounds: a round takes
	// between 1 and 2.5 s on the hosts the benchmark was sized on. The work of
	// a round is fixed, so -seconds fixes the work of a run, never a deadline.
	secondsPerRound = 1.5
	// minRounds is the fewest rounds a run measures, however short -seconds
	// is: the median across rounds needs them.
	minRounds = 6
	// setupsPerRun is how many complete set-ups setup_s is the median of. The
	// first comes before the measured phase (the rounds run on it), the others
	// after it, so their garbage never reaches rss_peak_mb.
	setupsPerRun = 3
)

func roundsFor(seconds int, sz sizes) int {
	if sz.smoke {
		return 2
	}
	return max(minRounds, int(float64(seconds)/secondsPerRound))
}

var workloads = []*workload{
	{
		name:     "read_cold",
		why:      "result cache off: every read is parsed and evaluated, so eval, rpe, nodeset and index do almost all the work and server and qcache almost none",
		readOnly: true,
		pristine: true,
		setup: func(e *setupEnv) (*target, error) {
			idx, err := loadTuned(e)
			if err != nil {
				return nil, err
			}
			idx.SetResultCache(0)
			return &target{h: e.handler(idx), idx: idx}, nil
		},
		ops: func(p *prepared, sz sizes, seed int64) *opList {
			return readList(len(p.Plan), pick(sz, 3, 1), seed)
		},
	},
	{
		name:     "read_hot",
		why:      "default cache, warmed: every read is a hit, so routing, middleware, query parse, qcache.Get, obs and JSON encoding do all the work and the evaluators none",
		readOnly: true,
		pristine: true,
		setup: func(e *setupEnv) (*target, error) {
			idx, err := dkindex.OpenFile(filepath.Join(e.inputs, indexFile))
			if err != nil {
				return nil, err
			}
			t := &target{h: e.handler(idx), idx: idx}
			// The warm pass: one evaluation of every plan op fills the cache.
			w := respWriter{hdr: make(http.Header)}
			for _, r := range e.reads {
				w.reset(false)
				t.h.ServeHTTP(&w, r)
				if w.status != http.StatusOK {
					return nil, fmt.Errorf("warm pass: %s answers %d", r.URL, w.status)
				}
			}
			return t, nil
		},
		ops: func(p *prepared, sz sizes, seed int64) *opList {
			return readList(len(p.Plan), pick(sz, 200, 2), seed)
		},
	},
	{
		name:       "write_durable",
		why:        "synchronous 8-mutation /v1/mutate batches on a real directory: clone, apply (Algorithms 3-5), WAL append + fsync and snapshot publish do the work, the evaluators none",
		pristine:   true,
		checkpoint: true,
		setup: func(e *setupEnv) (*target, error) {
			idx, err := loadTuned(e)
			if err != nil {
				return nil, err
			}
			store, err := dkindex.CreateStore(e.dir, idx, e.storeOptions())
			if err != nil {
				return nil, err
			}
			if err := idx.StartBatching(dkindex.BatchOptions{}); err != nil {
				return nil, err
			}
			return &target{h: e.handler(idx), idx: idx, store: store, dir: e.dir}, nil
		},
		ops: func(p *prepared, sz sizes, seed int64) *opList {
			return writeList(p, pick(sz, 100, 16), seed)
		},
	},
	{
		name:  "mixed_rw",
		why:   "64 Zipf reads then one 8-edge batch, repeated: the cache is invalidated wholesale every 64 reads, so hits, misses, clone garbage and publishes share one op sequence; set-up is crash recovery",
		stage: func(e *setupEnv) error { return copyDir(filepath.Join(e.inputs, storeDir), e.dir) },
		setup: recoverStore,
		ops: func(p *prepared, sz sizes, seed int64) *opList {
			return mixedList(p, pick(sz, 12, 2), 64, seed)
		},
	},
}

// recoverStore is the timed part of mixed_rw's set-up: dkserve -data-dir on a
// directory holding a checkpoint and a WAL tail.
func recoverStore(e *setupEnv) (*target, error) {
	store, rep, err := dkindex.OpenStore(e.dir, e.storeOptions())
	if err != nil {
		return nil, err
	}
	if want := walTailGroups * mutationsPerBatch; rep.Replayed != want || rep.ChainBroken || rep.TruncatedTail {
		store.Close()
		return nil, fmt.Errorf("recovery replayed %d records (want %d), chain broken %v, tail truncated %v",
			rep.Replayed, want, rep.ChainBroken, rep.TruncatedTail)
	}
	idx := store.Index()
	if err := idx.StartBatching(dkindex.BatchOptions{}); err != nil {
		store.Close()
		return nil, err
	}
	return &target{h: e.handler(idx), idx: idx, store: store, dir: e.dir}, nil
}

func pick(sz sizes, full, smoke int) int {
	if sz.smoke {
		return smoke
	}
	return full
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	names, err := fsx.OS{}.ReadDir(src)
	if err != nil {
		return err
	}
	for _, name := range names {
		in, err := os.Open(filepath.Join(src, name))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, name))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
