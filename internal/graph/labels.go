// Package graph provides the directed, node-labeled graph data model that
// underlies all structural summaries in this repository.
//
// Following the paper's data model (Section 3), XML and other semi-structured
// data are modeled as a directed graph in which every node carries a label and
// a unique identifier. A distinguished ROOT label marks the single root of a
// document graph and a distinguished VALUE label marks atomic values. Tree
// edges (containment) and reference edges (ID/IDREF, XLink) are not
// distinguished: both are plain directed edges.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"dkindex/internal/cow"
)

// Reserved label names from the paper's data model.
const (
	// RootLabel is the distinguished label of the single document root.
	RootLabel = "ROOT"
	// ValueLabel is the distinguished label given to simple (atomic) objects.
	ValueLabel = "VALUE"
)

// LabelID is the interned identifier of a node label. Label identifiers are
// dense: they index into the owning LabelTable.
type LabelID int32

// InvalidLabel is returned for lookups of unknown label names.
const InvalidLabel LabelID = -1

// LabelTable interns label strings to dense LabelIDs. The zero value is not
// usable; construct with NewLabelTable. A LabelTable is not safe for
// concurrent mutation; concurrent reads are fine, and so is Clone beside
// them.
//
// Clone shares the name list and the name map under internal/cow's ownership
// rule: the table holds a write token, writer records the token that may
// write both in place, and the first Intern of a new name after a clone
// copies them.
type LabelTable struct {
	own    atomic.Pointer[cow.Owner]
	writer *cow.Owner
	names  []string
	ids    map[string]LabelID
}

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable {
	return &LabelTable{ids: make(map[string]LabelID)}
}

// Intern returns the LabelID for name, assigning a fresh one on first use.
func (t *LabelTable) Intern(name string) LabelID {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if own := t.own.Load(); t.writer != own {
		t.names, t.ids, t.writer = slices.Clip(t.names), maps.Clone(t.ids), own
	}
	id := LabelID(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Lookup returns the LabelID for name, or InvalidLabel if it has never been
// interned.
func (t *LabelTable) Lookup(name string) LabelID {
	if id, ok := t.ids[name]; ok {
		return id
	}
	return InvalidLabel
}

// Name returns the string form of id. It panics on out-of-range ids, which
// always indicate a programming error (LabelIDs are only minted by Intern).
func (t *LabelTable) Name(id LabelID) string {
	if id < 0 || int(id) >= len(t.names) {
		panic(fmt.Sprintf("graph: label id %d out of range [0,%d)", id, len(t.names)))
	}
	return t.names[id]
}

// Len returns the number of distinct labels interned.
func (t *LabelTable) Len() int { return len(t.names) }

// Clone returns an independent copy of the table in constant time: both
// sides share what they hold until either interns a new name. Like
// Graph.Clone it only reads the receiver apart from retiring its write token.
func (t *LabelTable) Clone() *LabelTable {
	c := &LabelTable{names: t.names, ids: t.ids}
	c.own.Store(new(cow.Owner))
	t.own.Store(new(cow.Owner))
	return c
}
