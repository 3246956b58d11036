package graph

// FigureOneMovies builds the movie data graph of the paper's Figure 1 (a
// portion of an XML document about movies, with directors, actors and
// reference edges from actors to the movies they act in).
//
// The figure itself is only reproduced in the paper as an image; this
// reconstruction preserves every fact the text states about it:
//
//   - director.movie.title evaluates to {15, 16, 18};
//   - movieDB.(_)?.movie.actor.name evaluates to {12, 22};
//   - movie nodes 7 and 10 are bisimilar;
//   - movie nodes 7 and 9 are not bisimilar, because 7 has a parent labeled
//     actor while 9 does not.
//
// Node 0 is the distinguished ROOT; nodes 1..22 follow the paper's numbering.
func FigureOneMovies() *Graph {
	g := New()
	labels := []string{
		RootLabel,  // 0
		"movieDB",  // 1
		"director", // 2
		"director", // 3
		"actor",    // 4
		"movie",    // 5
		"name",     // 6
		"movie",    // 7
		"name",     // 8
		"movie",    // 9
		"movie",    // 10
		"actor",    // 11
		"name",     // 12
		"title",    // 13
		"year",     // 14
		"title",    // 15
		"title",    // 16
		"year",     // 17
		"title",    // 18
		"year",     // 19
		"name",     // 20
		"actor",    // 21
		"name",     // 22
	}
	g.AddRoot()
	for _, l := range labels[1:] {
		g.AddNode(l)
	}
	edges := [][2]NodeID{
		{0, 1},
		{1, 2}, {1, 3}, {1, 4}, {1, 5},
		{2, 6}, {2, 7},
		{3, 8}, {3, 9}, {3, 10},
		{4, 20}, {4, 7}, {4, 10}, // actor -> movie edges are references
		{5, 13}, {5, 11},
		{7, 15}, {7, 14},
		{9, 16}, {9, 17},
		{10, 18}, {10, 19}, {10, 21},
		{11, 12},
		{21, 22},
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TinyCycle builds a minimal cyclic labeled graph (useful in tests that must
// exercise cycle handling in validation and promotion): ROOT -> a -> b -> a.
func TinyCycle() *Graph {
	g := New()
	r := g.AddRoot()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(r, a)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	return g
}
