// Adaptive demonstrates what makes the D(k)-index different from its static
// predecessors: the same index instance follows a drifting query load —
// promoting labels the load starts reaching through long paths, demoting
// when the load simplifies — and absorbs document insertions incrementally.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"strings"

	"dkindex"
	"dkindex/internal/datagen"
)

func main() {
	// A NASA-like astronomical metadata catalog.
	doc := datagen.NASA(datagen.NASAConfig{Seed: 11, TargetNodes: 8000})
	var buf strings.Builder
	if err := doc.WriteXML(&buf); err != nil {
		log.Fatal(err)
	}
	idx, err := dkindex.LoadXMLString(buf.String(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog loaded: %d data nodes -> %d index nodes (label split)\n",
		idx.Stats().DataNodes, idx.Stats().IndexNodes)

	report := func(phase, query string) {
		res, err := idx.Run(dkindex.Request{Text: query})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %-38s %5d results  cost=%d (validated %d)\n",
			phase, query, res.Total, res.Stats.IndexNodesVisited+res.Stats.DataNodesValidated,
			res.Stats.DataNodesValidated)
	}
	apply := func(m dkindex.Mutation) {
		if _, err := idx.Apply(m); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 1: the load asks shallow questions.
	fmt.Println("\nphase 1: shallow load (dataset.title, keywords.keyword)")
	apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: map[string]int{"title": 1, "keyword": 1}})
	report("shallow-tuned:", "dataset.title")
	report("shallow-tuned:", "keywords.keyword")
	fmt.Printf("index size: %d nodes\n", idx.Stats().IndexNodes)

	// Phase 2: analysts start asking deep lineage questions. The same
	// index instance is promoted — no rebuild, no data-graph traversal.
	fmt.Println("\nphase 2: deep lineage queries arrive (dataset.history.revision.basedon.revision)")
	deep := "dataset.history.revision.basedon.revision"
	report("before promotion:", deep)
	apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "revision", K: 4})
	report("after promote(revision,4):", deep)
	fmt.Printf("index size: %d nodes\n", idx.Stats().IndexNodes)

	// Phase 3: the catalog grows — a new batch of datasets is ingested as
	// a document insertion (Algorithm 3), reusing the existing index.
	fmt.Println("\nphase 3: ingest a new document batch")
	more := datagen.NASA(datagen.NASAConfig{Seed: 12, TargetNodes: 2000})
	var buf2 strings.Builder
	if err := more.WriteXML(&buf2); err != nil {
		log.Fatal(err)
	}
	before := idx.Stats()
	apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: []byte(buf2.String())})
	after := idx.Stats()
	fmt.Printf("data %d -> %d nodes; index %d -> %d nodes\n",
		before.DataNodes, after.DataNodes, before.IndexNodes, after.IndexNodes)
	report("after ingest:", "dataset.title")

	// Phase 4: the deep load fades; demote to shrink the index again.
	fmt.Println("\nphase 4: load simplifies; demote")
	apply(dkindex.Mutation{Op: dkindex.MutDemote, Reqs: map[string]int{"title": 1, "keyword": 1}})
	fmt.Printf("index size after demotion: %d nodes\n", idx.Stats().IndexNodes)
	report("demoted (still exact):", deep)
}
