package dkindex

import (
	"fmt"
	"io"
	"os"
	"sync"

	"dkindex/internal/codec"
	"dkindex/internal/fsx"
	"dkindex/internal/obs"
	"dkindex/internal/workload"
)

// Save writes the index — data graph, extents, similarities and tuned
// requirements — to a compact versioned binary stream. Open restores it.
// Save reads one snapshot; it is safe concurrently with queries and
// mutations.
func (x *Index) Save(w io.Writer) error {
	return codec.SaveDK(w, x.DK())
}

// SaveFile is Save to a file path, written atomically and durably: the bytes
// go to a temp file that is fsynced and renamed over the target, so a crash
// mid-save leaves either the old file or the new one, never a torn mix.
func (x *Index) SaveFile(path string) error {
	_, err := fsx.WriteAtomic(fsx.OS{}, path, x.Save)
	return err
}

// Open restores an index persisted with Save. Queries on the restored index
// return identical results at identical cost.
func Open(r io.Reader) (*Index, error) {
	dk, err := codec.LoadDK(r)
	if err != nil {
		return nil, err
	}
	return newIndex(dk), nil
}

// OpenFile is Open from a file path.
func OpenFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Open(f)
}

// Reload replaces the live index with one persisted via Save, keeping the
// attached observer: instrumentation is re-wired onto the fresh graphs and a
// codec_reload lifecycle event is emitted. The load recorder and auto-promote
// heat are reset — they refer to the replaced graph's label table. On a decode
// error the index is left untouched. Reload is the one state change that is
// not a Mutation: it takes no sequence number, moves no watermark and is not
// journalled, so a store-managed index refuses it — a wholesale swap would
// diverge the durable state from the served one.
//
// Decoding happens outside the writer mutex; only the swap itself blocks
// other mutations, and queries are never blocked at all.
func (x *Index) Reload(r io.Reader) error {
	dk, err := codec.LoadDK(r)
	if err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.jr != nil {
		return fmt.Errorf("dkindex: index is managed by a store; Reload would bypass its write-ahead log")
	}
	before, start := x.handle.Load().dk.IG.NumNodes(), x.stamp()
	if x.recorder.Load() != nil {
		x.recorder.Store(workload.NewRecorder())
	}
	if x.heat.Load() != nil {
		x.heat.Store(&sync.Map{})
	}
	x.instrument(dk)
	x.publish(dk)
	x.observer.RecordEvent(obs.Event{Type: obs.EventCodecReload,
		NodesBefore: before, NodesAfter: dk.IG.NumNodes(), Wall: opWall(start)})
	x.syncGauges()
	return nil
}

// ReloadFile is Reload from a file path.
func (x *Index) ReloadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return x.Reload(f)
}
