package dkindex

import (
	"fmt"
	"time"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
)

// Observe attaches an observer to the index: queries feed the observer's
// metrics and trace sampler, and every adaptation — promotion, demotion,
// edge and subgraph updates, retunes, codec reloads, and each extent split
// they cause — is published to its lifecycle event stream.
// Attach before sharing the index; a nil observer detaches. Unobserved
// indexes pay only nil receiver checks on every instrumented path, and the
// cost counters reported by queries are bit-identical with or without an
// observer (tracing measures the cost model, it never participates in it).
func (x *Index) Observe(o *obs.Observer) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.observer = o
	if o != nil {
		x.syncGauges()
	}
}

// Observer returns the attached observer, or nil.
func (x *Index) Observer() *obs.Observer { return x.observer }

// instrument attaches the extent-split hook to a successor state before (or,
// for operations that replace the index graph wholesale, after) its
// mutation. Clones never inherit the hook — published snapshots must not
// fire events for work done on their successors — so every mutation
// instruments the copy it is about to publish. The closure captures the
// successor's graphs directly; it must not read the published handle, which
// still points at the predecessor while the mutation runs.
func (x *Index) instrument(dk *core.DK) {
	if x.observer == nil {
		return
	}
	ig := dk.IG
	labels := ig.Data().Labels()
	ig.SetOnSplit(func(orig, created graph.NodeID) {
		x.observer.RecordEvent(obs.Event{
			Type:        obs.EventExtentSplit,
			Label:       labels.Name(ig.Label(orig)),
			K:           ig.K(created),
			NodesBefore: ig.NumNodes() - 1,
			NodesAfter:  ig.NumNodes(),
			Created:     1,
		})
	})
}

// stamp reads the clock when an observer is attached and returns the zero
// time otherwise, so unobserved commits pay nothing for stage timing.
func (x *Index) stamp() time.Time {
	if x.observer == nil {
		return time.Time{}
	}
	return time.Now()
}

// opWall converts a stamp into the wall time since it (zero when unobserved).
func opWall(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// observeBuildStats records a completed construction job — optimize,
// set_requirements, compaction, demotion, subgraph addition — into the
// observer's build metrics and publishes its span as a lifecycle event. The
// statistics and node count are passed by value because the group-commit
// path's per-mutation states are intermediate and may no longer be the
// published one by the time the batch reports. Callers hold mu. No-op when
// unobserved or when the statistics are empty (clones, decoded snapshots).
func (x *Index) observeBuildStats(trigger string, st core.BuildStats, nodesAfter int) {
	if x.observer == nil || st.Total == 0 {
		return
	}
	x.observer.ObserveBuild(trigger, obs.BuildSample{
		Rounds:     st.Rounds,
		Splits:     st.Splits,
		PeakBlocks: st.PeakBlocks,
		CSRBuild:   st.CSRBuild,
		Total:      st.Total,
	})
	x.observer.RecordEvent(obs.Event{
		Type:       obs.EventBuild,
		NodesAfter: nodesAfter,
		Created:    st.Splits,
		Wall:       st.Total,
		Detail:     fmt.Sprintf("trigger=%s rounds=%d peak_blocks=%d csr=%s", trigger, st.Rounds, st.PeakBlocks, st.CSRBuild),
	})
}

// syncGauges pushes the current size, generation, cache and succinct-set
// memory statistics into the observer's gauges.
func (x *Index) syncGauges() {
	if x.observer == nil {
		return
	}
	o, s := x.observer, x.Stats()
	o.Gauge(obs.DataNodes).Set(float64(s.DataNodes))
	o.Gauge(obs.DataEdges).Set(float64(s.DataEdges))
	o.Gauge(obs.IndexNodes).Set(float64(s.IndexNodes))
	o.Gauge(obs.IndexEdges).Set(float64(s.IndexEdges))
	o.Gauge(obs.IndexMaxK).Set(float64(s.MaxK))
	o.SetSnapshotGeneration(s.Generation)
	o.Gauge(obs.CacheEntries).Set(float64(s.CachedResults))
	ms := x.handle.Load().dk.IG.MemStats()
	o.SetExtentMemory(obs.MemorySample{
		ExtentSparseBytes: ms.Extents.SparseTotal(),
		ExtentDenseBytes:  ms.Extents.DenseTotal(),
		ExtentRawBytes:    ms.ExtentRawBytes,
	})
}

// costSample converts evaluation cost counters for the observer's histograms.
func costSample(c eval.Cost) obs.CostSample {
	return obs.CostSample{
		IndexNodesVisited:  c.IndexNodesVisited,
		DataNodesValidated: c.DataNodesValidated,
		Validations:        c.Validations,
	}
}
