package dkindex

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"

	"dkindex/internal/fsx"
	"dkindex/internal/wal"
)

// The replication feed. A primary's Store exposes two read-only accessors a
// replica bootstraps and tails from:
//
//   - FeedCheckpoint serves the newest durable checkpoint plus the global
//     sequence a tail must continue from.
//   - FeedWAL serves acknowledged WAL frames at and above a global sequence,
//     re-framed so their sequence numbers are feed-global rather than
//     per-epoch. The chunk is byte-compatible with a WAL file (header, then
//     CRC-framed records), so both sides share one codec and a body truncated
//     in flight is detected exactly like a torn tail on disk.
//
// Global sequence numbers are scoped to a stream instance — one boot of the
// primary process. A restart renumbers from the recovered state (unsynced
// tail records a replica may have seen could be gone), so every feed response
// carries the instance and a replica re-bootstraps when it changes. Within an
// instance, positions below the oldest retained epoch answer ErrReplGone;
// re-bootstrapping from the checkpoint is always sufficient to resume.

// ErrReplGone reports a replication position no longer retained: the epoch
// holding it was pruned. The replica recovers by bootstrapping again from
// FeedCheckpoint.
var ErrReplGone = errors.New("dkindex: replication position no longer retained")

// errChunkFull ends a segment's walk once the chunk holds its byte budget.
var errChunkFull = errors.New("dkindex: replication chunk full")

// replChunkBytes bounds one FeedWAL response body when the caller does not.
const replChunkBytes = 1 << 20

// newReplInstance mints the per-boot stream instance id.
func newReplInstance() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("dkindex: reading random instance id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// headSeqLocked returns the current head global sequence (the last record's
// global sequence number). Callers hold idx.mu.
func (s *Store) headSeqLocked() uint64 {
	if len(s.segs) == 0 {
		return 0
	}
	last := s.segs[len(s.segs)-1]
	return last.base + last.count
}

// ReplStatus reports the feed's stream instance and head global sequence.
func (s *Store) ReplStatus() (instance string, head uint64) {
	s.idx.mu.Lock()
	defer s.idx.mu.Unlock()
	return s.replInst, s.headSeqLocked()
}

// ReplCheckpoint is one FeedCheckpoint response: a full checkpoint image and
// the position a tail continues from.
type ReplCheckpoint struct {
	// Data is the checkpoint file's bytes (a codec snapshot, as Save writes).
	Data []byte
	// Epoch is the checkpoint's epoch, for diagnostics.
	Epoch uint64
	// NextSeq is the first global sequence not covered by the checkpoint:
	// tail with FeedWAL(NextSeq, ...).
	NextSeq uint64
	// Instance scopes NextSeq; compare against later responses.
	Instance string
	// Head is the head global sequence when the checkpoint was served.
	Head uint64
}

// FeedCheckpoint serves the newest durable checkpoint for replica bootstrap.
func (s *Store) FeedCheckpoint() (*ReplCheckpoint, error) {
	s.idx.mu.Lock()
	if s.closed {
		s.idx.mu.Unlock()
		return nil, ErrStoreClosed
	}
	ck := &ReplCheckpoint{Epoch: s.lastCkpt, Instance: s.replInst, Head: s.headSeqLocked()}
	for _, seg := range s.segs {
		if seg.epoch == ck.Epoch {
			ck.NextSeq = seg.base + 1
		}
	}
	s.idx.mu.Unlock()
	if ck.NextSeq == 0 {
		return nil, fmt.Errorf("dkindex: no replication segment for checkpoint epoch %d", ck.Epoch)
	}
	data, err := fsx.ReadAll(s.fs, filepath.Join(s.dir, checkpointName(ck.Epoch)))
	if err != nil {
		return nil, fmt.Errorf("dkindex: reading checkpoint %d for feed: %w", ck.Epoch, err)
	}
	ck.Data = data
	return ck, nil
}

// ReplChunk is one FeedWAL response: WAL-format bytes carrying global
// sequence numbers.
type ReplChunk struct {
	// Data is a WAL header followed by re-framed records. Empty of records
	// (header only) when the caller is caught up.
	Data []byte
	// From is the global sequence of the first record in Data; it can be
	// below the requested position when that position lands inside a group
	// frame (groups ship whole — the caller skips already-applied members).
	// Zero when Data carries no records.
	From uint64
	// Head is the head global sequence at serve time.
	Head uint64
	// Instance scopes every sequence in the chunk.
	Instance string
}

// FeedWAL serves acknowledged records with global sequence >= from, up to
// roughly maxBytes of re-framed data (<= 0 for the default bound). Group
// frames are never split: a chunk always ends on a frame boundary, and a
// group containing from is shipped whole. A position below the retention
// answers ErrReplGone; a position above the head answers an empty chunk.
func (s *Store) FeedWAL(from uint64, maxBytes int) (*ReplChunk, error) {
	if from == 0 {
		return nil, fmt.Errorf("dkindex: replication sequences are 1-based (from=0)")
	}
	if maxBytes <= 0 {
		maxBytes = replChunkBytes
	}
	s.idx.mu.Lock()
	if s.closed {
		s.idx.mu.Unlock()
		return nil, ErrStoreClosed
	}
	segs := make([]replSeg, len(s.segs))
	copy(segs, s.segs)
	cur := s.epoch
	durable := s.w.Offset()
	chunk := &ReplChunk{Instance: s.replInst, Head: s.headSeqLocked()}
	s.idx.mu.Unlock()

	chunk.Data = wal.Header()
	if from > chunk.Head {
		return chunk, nil
	}
	if len(segs) == 0 || from <= segs[0].base {
		return nil, fmt.Errorf("%w: seq %d", ErrReplGone, from)
	}
	for _, seg := range segs {
		// A chunk always carries at least one frame (even past maxBytes) so a
		// small budget can never stall a tail that is behind the head.
		if chunk.From != 0 && len(chunk.Data) >= maxBytes {
			break
		}
		if from > seg.base+seg.count {
			continue // entirely below the requested position
		}
		if err := s.feedSegment(chunk, seg, from, maxBytes, seg.epoch == cur, durable); err != nil {
			return nil, err
		}
	}
	return chunk, nil
}

// feedSegment appends re-framed records of one epoch's log to the chunk,
// starting at global sequence from (frames wholly below it are skipped).
// For the current epoch the file is clipped to the durable offset captured
// under the lock: bytes beyond it may be unacknowledged or rolled back.
func (s *Store) feedSegment(chunk *ReplChunk, seg replSeg, from uint64, maxBytes int, current bool, durable int64) error {
	data, err := fsx.ReadAll(s.fs, filepath.Join(s.dir, walName(seg.epoch)))
	if err != nil {
		return fmt.Errorf("dkindex: reading wal %d for feed: %w", seg.epoch, err)
	}
	if current && int64(len(data)) > durable {
		data = data[:durable]
	}
	_, err = wal.Walk(data, 0, func(recs []wal.Record) error {
		if chunk.From != 0 && len(chunk.Data) >= maxBytes {
			return errChunkFull
		}
		if seg.base+recs[len(recs)-1].Seq < from {
			return nil // frame wholly applied before the requested position
		}
		for i := range recs {
			recs[i].Seq += seg.base
		}
		if chunk.From == 0 {
			chunk.From = recs[0].Seq
		}
		var err error
		chunk.Data, err = wal.AppendFrame(chunk.Data, recs)
		return err
	})
	// The durable prefix should always walk whole; a torn frame in it ends
	// what this segment can serve rather than failing the feed.
	if err != nil && !errors.Is(err, errChunkFull) {
		return fmt.Errorf("dkindex: wal %d for feed: %w", seg.epoch, err)
	}
	return nil
}
