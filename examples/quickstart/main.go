// Quickstart: load an XML document, tune a D(k)-index, and run path queries.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dkindex"
)

const doc = `<?xml version="1.0"?>
<library>
  <shelf id="s1">
    <book id="b1"><title/><author ref="w1"/></book>
    <book id="b2"><title/><author ref="w2"/></book>
  </shelf>
  <shelf id="s2">
    <journal id="j1"><title/><editor ref="w1"/></journal>
  </shelf>
  <writer id="w1"><name/></writer>
  <writer id="w2"><name/></writer>
</library>
`

func main() {
	// Load: elements become graph nodes, nesting becomes edges, and the
	// ref= attributes become reference edges (author -> writer).
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	s := idx.Stats()
	fmt.Printf("data graph: %d nodes, %d edges; index: %d nodes\n",
		s.DataNodes, s.DataEdges, s.IndexNodes)

	// Every read is a Request given to Run, every write a Mutation given to
	// Apply.
	run := func(kind dkindex.Kind, text string) dkindex.Result {
		res, err := idx.Run(dkindex.Request{Kind: kind, Text: text})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	apply := func(m dkindex.Mutation) {
		if _, err := idx.Apply(m); err != nil {
			log.Fatal(err)
		}
	}

	// Freshly loaded, the index is the label-split graph (every local
	// similarity 0): long queries are answered exactly, but only by
	// validating candidates against the data.
	res := run(dkindex.KindPath, "shelf.book.title")
	fmt.Printf("shelf.book.title -> %d results, %d validations\n", res.Total, res.Stats.Validations)

	// Tell the index what the query load needs: titles are reached by
	// paths of length 2, names through references by length 2 as well.
	apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: map[string]int{"title": 2, "name": 2}})
	res = run(dkindex.KindPath, "shelf.book.title")
	fmt.Printf("after tuning: %d results, %d validations (index has %d nodes)\n",
		res.Total, res.Stats.Validations, idx.Stats().IndexNodes)

	// Reference edges participate like any other edge: which writers are
	// reachable as authors of shelved books?
	for _, n := range run(dkindex.KindPath, "book.author.writer.name").Nodes {
		fmt.Printf("  author name node: %d\n", n)
	}

	// Regular path expressions cover alternation, wildcards and '//'.
	fmt.Printf("library//name -> %d results\n", run(dkindex.KindRPE, "library//name").Total)

	// The index updates in place: add a document and re-query.
	apply(dkindex.Mutation{Op: dkindex.MutAddDocument,
		Doc: []byte(`<library><shelf><book><title/></book></shelf></library>`)})
	fmt.Printf("after inserting a document: shelf.book.title -> %d results\n",
		run(dkindex.KindPath, "shelf.book.title").Total)
}
