package dkindex

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dkindex/internal/codec"
	"dkindex/internal/fsx"
	"dkindex/internal/obs"
	"dkindex/internal/wal"
)

// A Store makes an Index crash-safe. It owns a directory of checkpoint files
// (full codec snapshots, written atomically) and write-ahead logs (one per
// checkpoint epoch, one fsynced frame per commit):
//
//	checkpoint-00000004.dkx   state as of epoch 4
//	wal-00000004.log          mutations applied after checkpoint 4
//	wal-00000005.log          ... after the next rotation, and so on
//
// Every mutation of the managed index appends a record to the current log
// and returns only after the record is durable; the in-memory snapshot is
// published strictly afterwards, so an acknowledged mutation is never lost
// and a crash mid-mutation loses at most work that was never acknowledged.
//
// Checkpoint rotates: a fresh log for epoch e+1 is created (and its name
// dir-synced) before the epoch-e+1 checkpoint is written, so the chain
// checkpoint-e → wal-e → wal-e+1 → ... always reconstructs the latest state
// even when a checkpoint write fails or is torn by a crash. OpenStore
// recovers by loading the newest readable checkpoint, replaying the log
// chain above it — each frame as the one commit that wrote it — truncating
// any torn tail of the last log, and resuming appends there.
type Store struct {
	fs       fsx.FS
	dir      string
	retain   int
	observer *obs.Observer
	idx      *Index

	// ckmu serializes Checkpoint and Close against each other; the short
	// writer-swap inside Checkpoint additionally holds idx.mu, which is what
	// logGroup runs under.
	ckmu sync.Mutex

	// Guarded by idx.mu (mutations already hold it when appending).
	w        *wal.Writer
	epoch    uint64
	appended uint64 // records since the last successful checkpoint
	closed   bool

	// Replication feed state, also guarded by idx.mu. replInst names this
	// boot's stream instance: global sequence numbers are only comparable
	// within one instance, so a restart (which renumbers from the recovered
	// state) forces replicas to re-bootstrap. segs maps retained WAL epochs
	// into the instance's global sequence space, in epoch order; the last
	// segment is always the current epoch. lastCkpt is the epoch of the
	// newest durable checkpoint, which bootstraps new replicas.
	replInst string
	segs     []replSeg
	lastCkpt uint64
}

// replSeg maps one WAL epoch into the boot-scoped global replication
// sequence: record s (1-based within the epoch's log) carries global
// sequence base+s, and the log holds count records.
type replSeg struct {
	epoch uint64
	base  uint64
	count uint64
}

// StoreOptions configures CreateStore and OpenStore.
type StoreOptions struct {
	// FS is the filesystem to persist on; nil means the real one. Tests
	// substitute the fault-injecting in-memory filesystem.
	FS fsx.FS
	// Observer receives durability metrics and lifecycle events. When nil,
	// the observer already attached to the index (if any) is used.
	Observer *obs.Observer
	// RetainCheckpoints is how many checkpoints (and their log chains) to
	// keep; at least 2 so one corrupted checkpoint never loses the store.
	// Values below 2 (including the zero value) mean 2.
	RetainCheckpoints int
}

// ErrStoreClosed reports an operation on a closed store.
var ErrStoreClosed = errors.New("dkindex: store is closed")

// ErrNoStore reports a directory with no checkpoint to recover from.
var ErrNoStore = errors.New("dkindex: no store in directory")

const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".dkx"
	walPrefix        = "wal-"
	walSuffix        = ".log"
)

func checkpointName(epoch uint64) string {
	return fmt.Sprintf("%s%08d%s", checkpointPrefix, epoch, checkpointSuffix)
}

func walName(epoch uint64) string {
	return fmt.Sprintf("%s%08d%s", walPrefix, epoch, walSuffix)
}

// parseEpoch extracts the epoch from a checkpoint or WAL file name.
func parseEpoch(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	num := name[len(prefix) : len(name)-len(suffix)]
	if num == "" {
		return 0, false
	}
	e, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// StoreExists reports whether dir holds a store (any checkpoint file).
func StoreExists(fs fsx.FS, dir string) bool {
	if fs == nil {
		fs = fsx.OS{}
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, n := range names {
		if _, ok := parseEpoch(n, checkpointPrefix, checkpointSuffix); ok {
			return true
		}
	}
	return false
}

func storeOptions(idx *Index, opts *StoreOptions) (fsx.FS, *obs.Observer, int) {
	fs := fsx.FS(fsx.OS{})
	var o *obs.Observer
	retain := 2
	if opts != nil {
		if opts.FS != nil {
			fs = opts.FS
		}
		o = opts.Observer
		if opts.RetainCheckpoints > retain {
			retain = opts.RetainCheckpoints
		}
	}
	if o == nil && idx != nil {
		o = idx.Observer()
	}
	return fs, o, retain
}

// CreateStore initializes dir as a store for idx: the current state becomes
// checkpoint 0, an empty epoch-0 log is created, and from then on every
// mutation of idx is write-ahead logged. It refuses a directory that already
// holds a store (recover those with OpenStore) and an index already managed
// by another store.
func CreateStore(dir string, idx *Index, opts *StoreOptions) (*Store, error) {
	fs, o, retain := storeOptions(idx, opts)
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if StoreExists(fs, dir) {
		return nil, fmt.Errorf("dkindex: directory %s already holds a store (use OpenStore)", dir)
	}
	s := &Store{fs: fs, dir: dir, retain: retain, observer: o, idx: idx,
		replInst: newReplInstance(), segs: []replSeg{{epoch: 0}}}
	dk := idx.DK()
	n, err := fsx.WriteAtomic(fs, filepath.Join(dir, checkpointName(0)), func(w io.Writer) error {
		return codec.SaveDK(w, dk)
	})
	if err != nil {
		return nil, fmt.Errorf("dkindex: initial checkpoint: %w", err)
	}
	w, err := wal.Create(fs, filepath.Join(dir, walName(0)))
	if err != nil {
		return nil, fmt.Errorf("dkindex: initial wal: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		w.Close()
		return nil, err
	}
	s.w = w
	if err := idx.attachJournal(s); err != nil {
		w.Close()
		return nil, err
	}
	s.observer.Counter(obs.Checkpoints).Inc()
	s.observer.Counter(obs.CheckpointBytes).Add(uint64(n))
	s.observer.RecordEvent(obs.Event{Type: obs.EventCheckpointOK,
		Detail: fmt.Sprintf("epoch 0, %d bytes (initial)", n)})
	return s, nil
}

// RecoveryReport describes what OpenStore found and did.
type RecoveryReport struct {
	// Checkpoint is the file the state was restored from.
	Checkpoint string
	// Epoch is the log epoch the store resumed appending to.
	Epoch uint64
	// CorruptCheckpoints lists newer checkpoints that failed to load and
	// were skipped (the chain of logs recovered their mutations).
	CorruptCheckpoints []string
	// Replayed is how many write-ahead records were reapplied.
	Replayed int
	// TruncatedTail reports that the last log ended in a torn or corrupt
	// record (the unacknowledged residue of a crash) that was chopped.
	TruncatedTail bool
	// ChainBroken reports damage inside the chain — a log other than the
	// last was unreadable or torn, or a frame failed to re-apply — so frames
	// and logs beyond the damage were ignored and a fresh checkpoint was
	// written immediately to re-anchor durability.
	ChainBroken bool
	// SweptTemp lists leftover temp files from interrupted atomic writes
	// that were removed.
	SweptTemp []string
}

// OpenStore recovers the store in dir: it loads the newest readable
// checkpoint, replays the write-ahead logs above it in epoch order — every
// frame through Index.ApplyWALFrame, one commit each, as a replica does — chops
// the torn tail a crash may have left on the last log, and resumes. The
// recovered index is reachable via Index; attach an Observer to it afterwards
// if desired (replayed mutations are not re-observed or re-logged).
func OpenStore(dir string, opts *StoreOptions) (*Store, *RecoveryReport, error) {
	fs, o, retain := storeOptions(nil, opts)
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{}

	// Sweep residue of interrupted atomic writes; they were never part of
	// the durable state.
	var ckpts, wals []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			if fs.Remove(filepath.Join(dir, name)) == nil {
				rep.SweptTemp = append(rep.SweptTemp, name)
			}
			continue
		}
		if e, ok := parseEpoch(name, checkpointPrefix, checkpointSuffix); ok {
			ckpts = append(ckpts, e)
		}
		if e, ok := parseEpoch(name, walPrefix, walSuffix); ok {
			wals = append(wals, e)
		}
	}
	if len(ckpts) == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoStore, dir)
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	walSet := make(map[uint64]bool, len(wals))
	maxEpoch := uint64(0)
	for _, e := range wals {
		walSet[e] = true
		if e > maxEpoch {
			maxEpoch = e
		}
	}

	// Newest readable checkpoint wins; corrupted ones are skipped, their
	// mutations recovered from the older checkpoint's log chain instead.
	var idx *Index
	base := uint64(0)
	for _, e := range ckpts {
		name := checkpointName(e)
		data, rerr := fsx.ReadAll(fs, filepath.Join(dir, name))
		if rerr == nil {
			var x *Index
			if x, rerr = Open(bytes.NewReader(data)); rerr == nil {
				idx, base, rep.Checkpoint = x, e, name
				break
			}
		}
		rep.CorruptCheckpoints = append(rep.CorruptCheckpoints, name)
	}
	if idx == nil {
		return nil, nil, fmt.Errorf("dkindex: no readable checkpoint in %s (tried %v)", dir, rep.CorruptCheckpoints)
	}
	if base > maxEpoch {
		maxEpoch = base
	}

	s := &Store{fs: fs, dir: dir, retain: retain, observer: o, idx: idx,
		replInst: newReplInstance(), lastCkpt: base}

	// Replay the log chain above the checkpoint. Only the last log may
	// legitimately end torn; damage earlier in the chain (or a frame that
	// fails to re-apply) orphans everything after it. Each replayed log also
	// becomes one replication segment: the feed's global sequence numbering
	// starts at zero before the first record of wal-base, which is exactly
	// where a replica bootstrapped from checkpoint-base resumes.
	last := base // epoch of the last replayed log; base-1 semantics when none
	var lastRes *wal.ReplayResult
	haveLog := false
	for e := base; walSet[e]; e++ {
		res, rerr := wal.ReplayFrames(fs, filepath.Join(dir, walName(e)), idx.ApplyWALFrame)
		if rerr != nil && res == nil {
			// Unreadable file (torn header): chain ends here.
			rep.ChainBroken = rep.ChainBroken || walSet[e+1]
			break
		}
		rep.Replayed += res.Records
		s.segs = append(s.segs, replSeg{epoch: e, base: s.headSeqLocked(), count: uint64(res.Records)})
		last, lastRes, haveLog = e, res, true
		if rerr != nil {
			// A frame failed to re-apply; nothing after it can be trusted.
			rep.ChainBroken = true
			break
		}
		if res.Truncated {
			rep.TruncatedTail = true
			rep.ChainBroken = rep.ChainBroken || walSet[e+1]
			break
		}
	}
	if rep.ChainBroken {
		last = maxEpoch
		// The re-anchoring checkpoint below starts a fresh sequence space;
		// logs replayed onto the broken chain must never be served.
		s.segs = nil
	}

	// Resume appending: reopen the last good log past its valid bytes, or
	// (when the crash hit between checkpoint and log creation, or the chain
	// is broken) start a fresh epoch.
	if haveLog && !rep.ChainBroken {
		w, werr := wal.OpenAt(fs, filepath.Join(dir, walName(last)), lastRes.ValidSize, lastRes.LastSeq)
		if werr != nil {
			return nil, nil, fmt.Errorf("dkindex: reopening %s: %w", walName(last), werr)
		}
		s.w, s.epoch = w, last
	} else if !rep.ChainBroken {
		w, werr := wal.Create(fs, filepath.Join(dir, walName(base)))
		if werr != nil {
			return nil, nil, werr
		}
		if werr := fs.SyncDir(dir); werr != nil {
			w.Close()
			return nil, nil, werr
		}
		s.w, s.epoch = w, base
		s.segs = []replSeg{{epoch: base}}
	} else {
		// Broken chain: re-anchor with a fresh checkpoint + log at an epoch
		// past everything on disk, so stale logs can never be replayed on
		// top of it.
		s.epoch = maxEpoch
		if cerr := s.Checkpoint(); cerr != nil {
			return nil, nil, fmt.Errorf("dkindex: re-anchoring broken store: %w", cerr)
		}
	}

	if err := idx.attachJournal(s); err != nil {
		return nil, nil, err
	}
	rep.Epoch = s.epoch
	s.observer.Counter(obs.RecoveryReplayed).Add(uint64(rep.Replayed))
	if rep.TruncatedTail {
		s.observer.Counter(obs.RecoveryTruncatedTail).Inc()
	}
	s.observer.RecordEvent(obs.Event{Type: obs.EventRecoveryReplayed,
		Detail: fmt.Sprintf("%d records onto %s, epoch %d", rep.Replayed, rep.Checkpoint, rep.Epoch)})
	return s, rep, nil
}

// Index returns the managed index.
func (s *Store) Index() *Index { return s.idx }

// Epoch returns the current log epoch.
func (s *Store) Epoch() uint64 {
	s.idx.mu.Lock()
	defer s.idx.mu.Unlock()
	return s.epoch
}

// Appended returns how many records have been logged since the last
// successful checkpoint; a checkpoint loop can skip idle intervals.
func (s *Store) Appended() uint64 {
	s.idx.mu.Lock()
	defer s.idx.mu.Unlock()
	return s.appended
}

// logGroup implements mutationJournal: it durably appends the records of one
// commit as one frame with one fsync — a group frame, which recovery replays
// whole or not at all, or for a lone record the plain frame it has always
// been. Called by commitLocked with idx.mu held.
func (s *Store) logGroup(recs []wal.GroupRecord) error {
	if s.closed {
		return ErrStoreClosed
	}
	what := string(walMutOps[recs[0].Op])
	if len(recs) > 1 {
		what = fmt.Sprintf("group of %d", len(recs))
	}
	n, err := s.w.AppendGroup(recs)
	if err != nil {
		return fmt.Errorf("dkindex: wal append (%s): %w", what, err)
	}
	s.appended += uint64(len(recs))
	s.segs[len(s.segs)-1].count += uint64(len(recs))
	if len(recs) > 1 {
		s.observer.Counter(obs.WALGroups).Inc()
	}
	s.observer.Counter(obs.WALRecords).Add(uint64(len(recs)))
	s.observer.Counter(obs.WALBytes).Add(uint64(n))
	s.observer.RecordEvent(obs.Event{Type: obs.EventWALAppend,
		Detail: fmt.Sprintf("%s, %d bytes, epoch %d", what, n, s.epoch)})
	return nil
}

// Checkpoint writes the current state as the next epoch's checkpoint. The
// log rotates first — records that land while the checkpoint is being
// written go to the new epoch's log — so queries and mutations proceed
// concurrently; only the writer swap itself takes the mutation lock. A
// failed checkpoint leaves the previous chain intact and is safe to retry.
func (s *Store) Checkpoint() error {
	s.ckmu.Lock()
	defer s.ckmu.Unlock()
	s.observer.RecordEvent(obs.Event{Type: obs.EventCheckpointBegin})

	s.idx.mu.Lock()
	if s.closed {
		s.idx.mu.Unlock()
		return ErrStoreClosed
	}
	dk := s.idx.handle.Load().dk
	next := s.epoch + 1
	w, err := wal.Create(s.fs, filepath.Join(s.dir, walName(next)))
	if err == nil {
		// The new log's name must be durable before records are acknowledged
		// into it, or a crash could erase an acknowledged mutation.
		if err = s.fs.SyncDir(s.dir); err != nil {
			w.Close()
		}
	}
	if err != nil {
		s.idx.mu.Unlock()
		s.observer.RecordEvent(obs.Event{Type: obs.EventCheckpointFail, Detail: err.Error()})
		return fmt.Errorf("dkindex: rotating wal: %w", err)
	}
	old := s.w
	s.w, s.epoch = w, next
	s.segs = append(s.segs, replSeg{epoch: next, base: s.headSeqLocked()})
	s.idx.mu.Unlock()
	if old != nil {
		old.Close()
	}

	n, err := fsx.WriteAtomic(s.fs, filepath.Join(s.dir, checkpointName(next)), func(w io.Writer) error {
		return codec.SaveDK(w, dk)
	})
	if err != nil {
		// The rotated log stays; recovery replays it on top of the older
		// checkpoint, so nothing acknowledged is at risk.
		s.observer.RecordEvent(obs.Event{Type: obs.EventCheckpointFail, Detail: err.Error()})
		return fmt.Errorf("dkindex: writing checkpoint %d: %w", next, err)
	}
	s.idx.mu.Lock()
	s.appended = 0
	s.lastCkpt = next
	s.idx.mu.Unlock()
	s.observer.Counter(obs.Checkpoints).Inc()
	s.observer.Counter(obs.CheckpointBytes).Add(uint64(n))
	s.observer.RecordEvent(obs.Event{Type: obs.EventCheckpointOK,
		Detail: fmt.Sprintf("epoch %d, %d bytes", next, n)})
	s.prune()
	return nil
}

// prune removes checkpoints beyond the retention and the logs that only
// older checkpoints need. Best-effort: a failure leaves extra files, never
// a broken store.
func (s *Store) prune() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var ckpts []uint64
	for _, name := range names {
		if e, ok := parseEpoch(name, checkpointPrefix, checkpointSuffix); ok {
			ckpts = append(ckpts, e)
		}
	}
	if len(ckpts) <= s.retain {
		return
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	oldest := ckpts[s.retain-1]
	// Replication positions inside the pruned epochs are gone with the files;
	// drop their segments first so the feed reports Gone rather than racing a
	// removal mid-read.
	s.idx.mu.Lock()
	for len(s.segs) > 1 && s.segs[0].epoch < oldest {
		s.segs = s.segs[1:]
	}
	s.idx.mu.Unlock()
	removed := false
	for _, name := range names {
		if e, ok := parseEpoch(name, checkpointPrefix, checkpointSuffix); ok && e < oldest {
			removed = s.fs.Remove(filepath.Join(s.dir, name)) == nil || removed
		}
		if e, ok := parseEpoch(name, walPrefix, walSuffix); ok && e < oldest {
			removed = s.fs.Remove(filepath.Join(s.dir, name)) == nil || removed
		}
	}
	if removed {
		s.fs.SyncDir(s.dir)
	}
}

// Close waits until every mutation accepted before the call has settled — so
// each is in the log — then detaches the store from its index (later
// mutations are no longer logged — pair Close with a final Checkpoint to
// persist everything) and closes the log. The index stays usable in memory.
func (s *Store) Close() error {
	s.idx.batch.waitIdle()
	s.ckmu.Lock()
	defer s.ckmu.Unlock()
	s.idx.mu.Lock()
	if s.closed {
		s.idx.mu.Unlock()
		return nil
	}
	s.closed = true
	s.idx.jr = nil
	w := s.w
	s.idx.mu.Unlock()
	if w != nil {
		return w.Close()
	}
	return nil
}
