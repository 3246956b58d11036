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
// ROOT node whose child is the document element: it is LoadDoc's compact form
// built into a graph at once, over the document's own label table.
func Load(r io.Reader, opts *Options) (*graph.Graph, *Report, error) {
	d, rep, err := LoadDoc(r, opts)
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.FromCSR(d.tab, d.labels, d.Root(), d.children)
	if err != nil {
		return nil, nil, fmt.Errorf("xmlgraph: %w", err)
	}
	return g, rep, nil
}

// LoadDoc parses one XML document into its compact form, for adding to an
// index or for Load to build a graph from.
func LoadDoc(r io.Reader, opts *Options) (*Doc, *Report, error) {
	d := &Doc{tab: graph.NewLabelTable()}
	d.node(graph.RootLabel)
	rep, err := parse(r, opts, d)
	if err != nil {
		return nil, nil, err
	}
	return d, rep, nil
}

// parse is the tokenizer loop behind LoadDoc: it adds the document's nodes
// and edges to d, whose node 0, the root, is already there.
func parse(r io.Reader, opts *Options, d *Doc) (*Report, error) {
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
	child := func(parent graph.NodeID, name string) graph.NodeID {
		n := d.node(name)
		d.edge(parent, n)
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
		d.edge(ref.from, target)
	}
	d.children, d.edges = graph.EdgeCSR(len(d.labels), d.edges), nil
	rep.ReferenceEdges = d.children.NumEdges() - (d.NumNodes() - 1) // every node but the root has one tree edge
	return rep, nil
}
