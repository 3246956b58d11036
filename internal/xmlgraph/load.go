// Package xmlgraph turns XML documents into the labeled data graphs of the
// paper's data model (Section 3): elements become nodes labeled with their
// tag, nesting becomes tree edges, text content becomes nodes with the
// distinguished VALUE label, attributes become child nodes, and ID/IDREF(S)
// attributes become reference edges. Tree edges and reference edges are not
// distinguished in the resulting graph.
package xmlgraph

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"dkindex/internal/graph"
)

// Options configures loading. The zero value is usable: values and ordinary
// attributes are skipped (structural indexing cares about labels, and value
// leaves would dominate the node count), while ID/IDREF reference edges are
// resolved.
type Options struct {
	// IncludeValues adds a VALUE-labeled child node for text content.
	IncludeValues bool
	// IncludeAttributes adds a child node labeled "@name" per attribute
	// (ID/IDREF attributes are always consumed for reference edges and
	// never materialized).
	IncludeAttributes bool
	// IDAttrs lists attribute names that define element identity.
	// Defaults to ["id"].
	IDAttrs []string
	// IDRefAttrs lists attribute names holding references (IDREF or
	// space-separated IDREFS). Defaults to ["idref", "ref"], plus any
	// attribute name ending in "ref".
	IDRefAttrs []string
	// Labels, when non-nil, is the label table Load interns into (lets
	// several documents share one table). A fresh table is created otherwise.
	// LoadDoc always keeps its own.
	Labels *graph.LabelTable
}

func (o *Options) isID(name string) bool {
	ids := o.IDAttrs
	if ids == nil {
		ids = []string{"id"}
	}
	for _, n := range ids {
		if strings.EqualFold(n, name) {
			return true
		}
	}
	return false
}

func (o *Options) isIDRef(name string) bool {
	refs := o.IDRefAttrs
	if refs == nil {
		refs = []string{"idref", "ref"}
	}
	for _, n := range refs {
		if strings.EqualFold(n, name) {
			return true
		}
	}
	return o.IDRefAttrs == nil && strings.HasSuffix(strings.ToLower(name), "ref")
}

// Report describes what Load found.
type Report struct {
	Elements       int      // element nodes created
	Values         int      // VALUE nodes created
	Attributes     int      // attribute nodes created
	ReferenceEdges int      // ID/IDREF edges added
	DanglingRefs   []string // IDREF values that resolved to no element
}

// Load parses one XML document into a data graph. The graph has a single
// ROOT node whose child is the document element.
func Load(r io.Reader, opts *Options) (*graph.Graph, *Report, error) {
	tab := graph.NewLabelTable()
	if opts != nil && opts.Labels != nil {
		tab = opts.Labels
	}
	g := graph.NewWithLabels(tab)
	g.AddRoot()
	rep, err := parse(r, opts, graphSink{g})
	if err != nil {
		return nil, nil, err
	}
	return g, rep, nil
}

// LoadDoc parses one XML document into its compact form, for adding to an
// index: the same nodes, labels and edges Load makes, in the same order,
// without a graph's pages.
func LoadDoc(r io.Reader, opts *Options) (*Doc, *Report, error) {
	d := &Doc{ids: make(map[string]graph.LabelID)}
	d.node(graph.RootLabel)
	rep, err := parse(r, opts, d)
	if err != nil {
		return nil, nil, err
	}
	return d, rep, nil
}

// LoadString is Load over a string; a convenience for tests and examples.
func LoadString(doc string, opts *Options) (*graph.Graph, *Report, error) {
	return Load(strings.NewReader(doc), opts)
}

// sink is what the tokenizer builds: a graph.Graph for Load, a Doc for
// LoadDoc. Node 0, the root, is already there.
type sink interface {
	node(name string) graph.NodeID
	// edge adds from -> to; a repeated edge is one edge.
	edge(from, to graph.NodeID)
	// seal finishes the build and returns its number of distinct edges.
	seal() int
}

type graphSink struct{ g *graph.Graph }

func (s graphSink) node(name string) graph.NodeID { return s.g.AddNode(name) }
func (s graphSink) edge(from, to graph.NodeID)    { s.g.AddEdge(from, to) }
func (s graphSink) seal() int                     { return s.g.NumEdges() }

// parse is the one tokenizer loop behind Load and LoadDoc.
func parse(r io.Reader, opts *Options, s sink) (*Report, error) {
	if opts == nil {
		opts = &Options{}
	}
	rep := &Report{}

	byID := make(map[string]graph.NodeID)
	type pendingRef struct {
		from graph.NodeID
		id   string
	}
	var refs []pendingRef
	treeEdges := 0
	child := func(parent graph.NodeID, name string) graph.NodeID {
		n := s.node(name)
		s.edge(parent, n)
		treeEdges++
		return n
	}

	dec := xml.NewDecoder(r)
	stack := []graph.NodeID{0}
	sawElement := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlgraph: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == 1 && sawElement {
				return nil, fmt.Errorf("xmlgraph: multiple document elements")
			}
			sawElement = true
			n := child(stack[len(stack)-1], t.Name.Local)
			rep.Elements++
			for _, a := range t.Attr {
				name := a.Name.Local
				switch {
				case opts.isID(name):
					byID[a.Value] = n
				case opts.isIDRef(name):
					for _, id := range strings.Fields(a.Value) {
						refs = append(refs, pendingRef{from: n, id: id})
					}
				case opts.IncludeAttributes:
					an := child(n, "@"+name)
					rep.Attributes++
					if opts.IncludeValues {
						child(an, graph.ValueLabel)
						rep.Values++
					}
				}
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) <= 1 {
				return nil, fmt.Errorf("xmlgraph: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if !opts.IncludeValues || len(stack) == 1 {
				continue
			}
			if strings.TrimSpace(string(t)) == "" {
				continue
			}
			child(stack[len(stack)-1], graph.ValueLabel)
			rep.Values++
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("xmlgraph: unexpected end of document (%d open elements)", len(stack)-1)
	}
	if !sawElement {
		return nil, fmt.Errorf("xmlgraph: empty document")
	}

	for _, ref := range refs {
		target, ok := byID[ref.id]
		if !ok {
			rep.DanglingRefs = append(rep.DanglingRefs, ref.id)
			continue
		}
		s.edge(ref.from, target)
	}
	rep.ReferenceEdges = s.seal() - treeEdges
	return rep, nil
}
