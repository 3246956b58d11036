// Package datagen generates the synthetic datasets of the paper's evaluation
// (Section 6):
//
//   - an XMark-like auction-site document (the paper used the XMark
//     benchmark generator at about 10 MB) — regular, moderately deep
//     structure with itemref/personref/categoryref reference edges;
//   - a NASA-like astronomical-metadata document (the paper used the IBM
//     XML generator with nasa.dtd at about 15 MB, keeping 8 of the 20
//     references) — broader, deeper, more irregular structure with more
//     references, produced by a generic DTD-driven generator.
//
// Both generators are deterministic for a given seed and emit
// xmlgraph.Elem trees; Graph serializes and re-parses them through the
// xmlgraph loader so the whole pipeline of a real deployment is exercised.
package datagen

import (
	"bytes"
	"fmt"
	"math/rand"

	"dkindex/internal/graph"
	"dkindex/internal/xmlgraph"
)

// Graph serializes the document and parses it back into a data graph using
// loader options that resolve the generators' reference attributes.
func Graph(doc *xmlgraph.Elem) (*graph.Graph, *xmlgraph.Report, error) {
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		return nil, nil, fmt.Errorf("datagen: serialize: %w", err)
	}
	return xmlgraph.Load(&buf, LoadOptions())
}

// LoadOptions returns xmlgraph options matching the generators' conventions:
// identity in id= attributes and references in *ref attributes (the loader's
// defaults cover both).
func LoadOptions() *xmlgraph.Options {
	return &xmlgraph.Options{}
}

// pick returns a geometric-ish small count in [min, max] biased toward the
// low end, the shape DTD star/plus expansions take in real documents.
func pick(rng *rand.Rand, min, max int) int {
	if max <= min {
		return min
	}
	n := min
	for n < max && rng.Intn(3) != 0 {
		n++
	}
	return n
}
