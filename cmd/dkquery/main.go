// Command dkquery loads an XML document, builds a D(k)-index and evaluates
// path queries against it, reporting results and the paper's cost model.
//
// Usage:
//
//	dkquery -in doc.xml -req title=2,name=1 "director.movie.title"
//	dkquery -in doc.xml -tune 100 -rpe "movieDB//name"
//	dkquery -in doc.xml -twig "movie[actor].title"
//	dkquery -in doc.xml -tune 100 -saveindex doc.dkx
//	dkquery -index doc.dkx "person.name"
//	dkgen -dataset xmark -scale 0.05 | dkquery -tune 100 "person.name"
//
// With no query arguments, queries are read one per line from stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dkindex"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dkquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("in", "", "XML input file (default stdin)")
		req     = fs.String("req", "", "per-label requirements, e.g. title=2,name=1")
		tune    = fs.Int("tune", 0, "tune with a sampled workload of N queries instead of -req")
		seed    = fs.Int64("seed", 1, "seed for -tune")
		isRPE   = fs.Bool("rpe", false, "treat queries as regular path expressions")
		isTwig  = fs.Bool("twig", false, "treat queries as branching (twig) path queries")
		explain = fs.Bool("explain", false, "print per-index-node detail for each query")
		attrs   = fs.Bool("attrs", false, "materialize attributes as nodes")
		vals    = fs.Bool("values", false, "materialize text values as VALUE nodes")
		quiet   = fs.Bool("quiet", false, "print only counts, not node ids")
		summary = fs.Bool("summary", false, "print the index shape summary after loading")
		audit   = fs.Int("audit", -1, "semantically audit the index up to this similarity level and exit")
		dot     = fs.Bool("dot", false, "print the index graph in Graphviz DOT and exit")
		load    = fs.String("index", "", "load a previously saved index instead of parsing XML")
		save    = fs.String("saveindex", "", "save the built index to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dkquery: %v\n", err)
		return 1
	}

	var idx *dkindex.Index
	if *load != "" {
		var err error
		if idx, err = dkindex.OpenFile(*load); err != nil {
			return fail(err)
		}
	} else {
		src := stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			src = f
		}
		var err error
		idx, err = dkindex.LoadXML(src, &dkindex.LoadOptions{
			IncludeAttributes: *attrs,
			IncludeValues:     *vals,
		})
		if err != nil {
			return fail(err)
		}
	}
	switch {
	case *tune > 0:
		if err := idx.Tune(*tune, *seed); err != nil {
			return fail(err)
		}
	case *req != "":
		reqs, err := dkindex.ParseRequirements(*req)
		if err != nil {
			return fail(err)
		}
		if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: reqs}); err != nil {
			return fail(err)
		}
	}
	if *save != "" {
		if err := idx.SaveFile(*save); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "index saved to %s\n", *save)
	}
	s := idx.Stats()
	fmt.Fprintf(stderr, "loaded: %d data nodes, %d data edges; index: %d nodes, %d edges, max k=%d\n",
		s.DataNodes, s.DataEdges, s.IndexNodes, s.IndexEdges, s.MaxK)
	if *summary {
		fmt.Fprint(stderr, idx.Summary().String())
	}
	if *audit >= 0 {
		if err := idx.Audit(*audit); err != nil {
			fmt.Fprintf(stderr, "dkquery: audit FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "audit passed up to level %d\n", *audit)
		return 0
	}
	if *dot {
		if err := idx.IG().WriteDOT(stdout, "dk", idx.Graph().Labels()); err != nil {
			return fail(err)
		}
		return 0
	}

	queries := fs.Args()
	if len(queries) == 0 {
		if *in == "" && *load == "" {
			fmt.Fprintln(stderr, "dkquery: no queries given and stdin already consumed by the document")
			return 2
		}
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" && !strings.HasPrefix(line, "#") {
				queries = append(queries, line)
			}
		}
		if err := sc.Err(); err != nil {
			return fail(err)
		}
	}
	for _, q := range queries {
		if *explain {
			e, err := idx.Explain(q)
			if err != nil {
				fmt.Fprintf(stderr, "dkquery: %q: %v\n", q, err)
				continue
			}
			fmt.Fprint(stdout, e.String())
			continue
		}
		kind := dkindex.KindPath
		switch {
		case *isRPE:
			kind = dkindex.KindRPE
		case *isTwig:
			kind = dkindex.KindTwig
		}
		res, err := idx.Run(dkindex.Request{Kind: kind, Text: q})
		if err != nil {
			fmt.Fprintf(stderr, "dkquery: %q: %v\n", q, err)
			continue
		}
		fmt.Fprintf(stdout, "%s: %d results (cost: %d index nodes, %d validated data nodes, %d validations)\n",
			q, res.Total, res.Stats.IndexNodesVisited, res.Stats.DataNodesValidated, res.Stats.Validations)
		if !*quiet {
			for i, n := range res.Nodes {
				if i == 20 {
					fmt.Fprintf(stdout, "  ... %d more\n", res.Total-20)
					break
				}
				fmt.Fprintf(stdout, "  node %d (%s)\n", n, res.LabelName(n))
			}
		}
	}
	return 0
}
