package graph

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format for debugging and for the
// examples. Nodes are labeled "id:label". Output is deterministic.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "G"
	}
	if _, err := fmt.Fprintf(w, "digraph %s {\n", dotID(name)); err != nil {
		return err
	}
	for n := 0; n < g.NumNodes(); n++ {
		shape := "ellipse"
		if NodeID(n) == g.root {
			shape = "doublecircle"
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q shape=%s];\n",
			n, fmt.Sprintf("%d:%s", n, g.labels.Name(g.nodeLabel.At(n))), shape); err != nil {
			return err
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		for _, c := range g.children.Row(n) {
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", n, c); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

func dotID(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '-' || r == ' ' || r == '.' {
			b.WriteByte('_')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Stats summarizes a graph's shape; used in experiment reports.
type Stats struct {
	Nodes     int
	Edges     int
	Labels    int
	MaxDepth  int
	MaxInDeg  int
	MaxOutDeg int
}

// ComputeStats gathers Stats for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		Labels:   g.labels.Len(),
		MaxDepth: g.MaxDepth(),
	}
	for n := 0; n < g.NumNodes(); n++ {
		if d := len(g.children.Row(n)); d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
		if d := len(g.parents.Row(n)); d > s.MaxInDeg {
			s.MaxInDeg = d
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d labels=%d depth=%d maxIn=%d maxOut=%d",
		s.Nodes, s.Edges, s.Labels, s.MaxDepth, s.MaxInDeg, s.MaxOutDeg)
}
