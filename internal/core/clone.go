package core

// Clone returns an independent copy of the index — summary, data graph, label
// table and requirements — by structural sharing: the copy costs table and
// pointer copies, and whichever side writes next copies only the pages, rows
// and maps it touches (internal/cow). A write through either side is never
// visible through the other, and a published snapshot may be cloned beside
// its lock-free readers. Every mutating operation of the facade works on such
// a clone and publishes it atomically.
func (dk *DK) Clone() *DK {
	return &DK{IG: dk.IG.Clone(), LabelReqs: dk.LabelReqs.Clone()}
}

// CloneForUpdate, CloneDetached and CloneIndex were the three deep-copy
// grades Clone replaced. The benchmark's per-layer probes (benchmark/probes.go,
// which a change claiming a gain may not edit) are their only remaining
// caller; delete them in the next benchmark change.
func (dk *DK) CloneForUpdate() *DK { return dk.Clone() }

// CloneDetached is Clone; see CloneForUpdate.
func (dk *DK) CloneDetached() *DK { return dk.Clone() }

// CloneIndex is Clone; see CloneForUpdate.
func (dk *DK) CloneIndex() *DK { return dk.Clone() }
