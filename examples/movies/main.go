// Movies reproduces Section 3 and Figure 1 of the paper: the movie data
// graph, its example path expressions, the bisimilarity facts the text
// states, and the structural summaries built over it.
//
//	go run ./examples/movies [-dot]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dkindex"
	"dkindex/internal/graph"
	"dkindex/internal/index"
)

func main() {
	dot := flag.Bool("dot", false, "print the data graph in Graphviz DOT and exit")
	flag.Parse()

	g := graph.FigureOneMovies()
	if *dot {
		if err := g.WriteDOT(os.Stdout, "figure1"); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println("Figure 1 movie graph:", g.ComputeStats())

	// The paper's two example path expressions (Section 3).
	idx := dkindex.FromGraph(g, map[string]int{"title": 2, "name": 4})
	for _, expr := range []string{
		"director.movie.title",          // paper: {15, 16, 18}
		"movieDB.(_)?.movie.actor.name", // paper: {12, 22}
	} {
		res, err := idx.Run(dkindex.Request{Kind: dkindex.KindRPE, Text: expr})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s -> %v (%d index nodes visited, %d validations)\n",
			expr, res.Nodes, res.Stats.IndexNodesVisited, res.Stats.Validations)
	}

	// Bisimilarity facts from the text: movies 7 and 10 are bisimilar
	// (both have director and actor parents), movies 7 and 9 are not.
	one := index.Build1Index(g)
	same := func(a, b graph.NodeID) string {
		if one.IndexOf(a) == one.IndexOf(b) {
			return "bisimilar"
		}
		return "NOT bisimilar"
	}
	fmt.Printf("movies 7 and 10 are %s; movies 7 and 9 are %s\n", same(7, 10), same(7, 9))

	// The summary family over this graph, smallest to most precise.
	fmt.Println("\nsummary sizes over the 23-node graph:")
	fmt.Printf("  label-split (A(0)): %d nodes\n", index.BuildLabelSplit(g).NumNodes())
	for k := 1; k <= 3; k++ {
		fmt.Printf("  A(%d):               %d nodes\n", k, index.BuildAK(g, k).NumNodes())
	}
	fmt.Printf("  1-index:            %d nodes\n", one.NumNodes())
	fmt.Printf("  D(k) for the load:  %d nodes (title:2, name:4)\n", idx.Stats().IndexNodes)
}
