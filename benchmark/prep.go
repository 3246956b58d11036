package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dkindex"
	"dkindex/internal/datagen"
	"dkindex/internal/eval"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
	"dkindex/internal/rpe"
	"dkindex/internal/xmlgraph"
)

// Preparation runs in a process of its own (benchmark -prepare) so that the
// generator's element tree, the oracle's data graph and the index it builds
// never count towards the measuring process's rss_peak_mb. It leaves four
// things in the inputs directory, which the runs of one checkout share, and
// the measuring process receives nothing else:
//
//	data.xml    the XMark document (the program's only input)
//	index.dkx   the tuned index, saved (read_hot opens it)
//	store/      a checkpoint plus a 128-record WAL tail (mixed_rw recovers it)
//	prep.json   the query plan with oracle counts, the edge and document
//	            pools, the mined requirements and the prepared store's digest
const (
	xmlFile   = "data.xml"
	indexFile = "index.dkx"
	storeDir  = "store"
	prepFile  = "prep.json"
)

// datasetSeed fixes the query load and the pools: -seed never changes the
// dataset, only the order in which a run walks it.
const datasetSeed = 1

// mutationsPerBatch is how many mutations one POST /v1/mutate carries.
const mutationsPerBatch = 8

// walTailGroups is how many group frames the prepared store's WAL holds
// beyond its checkpoint: 16 frames of 8 records, the 128 records whose replay
// mixed_rw's setup_s measures.
const walTailGroups = 16

// planOp is one read of the query plan with the result count the
// index-free oracle found on the data graph.
type planOp struct {
	Kind  string `json:"kind"`
	Query string `json:"q"`
	Want  int    `json:"want"`
}

// stateDigest is what a recovered or reopened index is compared on: its
// statistics and the totals of five fixed queries.
type stateDigest struct {
	DataNodes  int   `json:"dataNodes"`
	DataEdges  int   `json:"dataEdges"`
	IndexNodes int   `json:"indexNodes"`
	IndexEdges int   `json:"indexEdges"`
	MaxK       int   `json:"maxK"`
	Totals     []int `json:"totals"`
}

// prepVersion changes whenever preparation writes something else than it
// did: inputs left by an older version are prepared again.
const prepVersion = 1

// prepared is prep.json.
type prepared struct {
	Version  int            `json:"version"`
	Scale    float64        `json:"scale"`
	Nodes    int            `json:"nodes"`
	Edges    int            `json:"edges"`
	Labels   int            `json:"labels"`
	XMLBytes int            `json:"xmlBytes"`
	GenS     float64        `json:"genS"`
	Reqs     map[string]int `json:"reqs"`
	Plan     []planOp       `json:"plan"`
	// StoreEdges are the pairs the prepared store's WAL tail adds and removes;
	// its last four are still present in the recovered state. EdgePool are the
	// pairs the write workloads cycle through.
	StoreEdges [][2]dkindex.NodeID `json:"storeEdges"`
	EdgePool   [][2]dkindex.NodeID `json:"edgePool"`
	Docs       []string            `json:"docs"`
	Store      stateDigest         `json:"store"`
}

// digestQueries are the five reads a stateDigest totals: the XMark staples of
// the plan plus one plain path.
var digestQueries = []dkindex.Request{
	{Kind: dkindex.KindPath, Text: "site.people.person.name", Limit: -1},
	{Kind: dkindex.KindRPE, Text: "open_auction.itemref//name", Limit: -1},
	{Kind: dkindex.KindRPE, Text: "person.name|item.name", Limit: -1},
	{Kind: dkindex.KindTwig, Text: "item[mailbox].name", Limit: -1},
	{Kind: dkindex.KindTwig, Text: "person[name].emailaddress", Limit: -1},
}

func digest(idx *dkindex.Index) (stateDigest, error) {
	st := idx.Stats()
	d := stateDigest{DataNodes: st.DataNodes, DataEdges: st.DataEdges,
		IndexNodes: st.IndexNodes, IndexEdges: st.IndexEdges, MaxK: st.MaxK}
	for _, q := range digestQueries {
		res, err := idx.Run(q)
		if err != nil {
			return d, fmt.Errorf("digest query %s %q: %w", q.Kind, q.Text, err)
		}
		d.Totals = append(d.Totals, res.Total)
	}
	return d, nil
}

// oracleCount evaluates one read on the data graph alone, without any index.
func oracleCount(g *graph.Graph, kind, query string) (int, error) {
	labels := g.Labels()
	switch dkindex.Kind(kind) {
	case dkindex.KindPath:
		q, err := eval.ParseQuery(labels, query)
		if err != nil {
			return 0, err
		}
		nodes, _ := eval.Data(g, q)
		return len(nodes), nil
	case dkindex.KindRPE:
		e, err := rpe.Parse(query)
		if err != nil {
			return 0, err
		}
		nodes, _ := eval.DataRPE(g, rpe.CompileExpr(e, labels))
		return len(nodes), nil
	case dkindex.KindTwig:
		tw, err := eval.ParseTwig(labels, query)
		if err != nil {
			return 0, err
		}
		nodes, _ := eval.DataTwig(g, tw)
		return len(nodes), nil
	}
	return 0, fmt.Errorf("unknown query kind %q", kind)
}

// buildPlan derives the mixed path / RPE / twig plan the way
// cmd/dkbench/serve.go:buildServePlan does: every workload path verbatim, a
// descendant RPE (first//last) and a branching twig (first[second].second)
// from each long-enough path, plus four XMark staples. Ops the index rejects
// are dropped, so every planned read answers 200; a derived query that two
// paths share stays in twice, as it does there.
func buildPlan(ds *experiments.Dataset, idx *dkindex.Index) ([]planOp, error) {
	labels := ds.G.Labels()
	var candidates []planOp
	for _, q := range ds.W.Queries {
		path := q.Format(labels)
		candidates = append(candidates, planOp{Kind: "path", Query: path})
		seg := strings.Split(path, ".")
		if len(seg) >= 3 {
			candidates = append(candidates, planOp{Kind: "rpe", Query: seg[0] + "//" + seg[len(seg)-1]})
		}
		if len(seg) >= 2 {
			candidates = append(candidates, planOp{Kind: "twig", Query: seg[0] + "[" + seg[1] + "]." + seg[1]})
		}
	}
	candidates = append(candidates,
		planOp{Kind: "rpe", Query: "open_auction.itemref//name"},
		planOp{Kind: "rpe", Query: "person.name|item.name"},
		planOp{Kind: "twig", Query: "item[mailbox].name"},
		planOp{Kind: "twig", Query: "person[name].emailaddress"},
	)
	var plan []planOp
	for _, op := range candidates {
		res, err := idx.Run(dkindex.Request{Kind: dkindex.Kind(op.Kind), Text: op.Query, Limit: -1})
		if err != nil {
			continue
		}
		want, err := oracleCount(ds.G, op.Kind, op.Query)
		if err != nil {
			return nil, fmt.Errorf("oracle %s %q: %w", op.Kind, op.Query, err)
		}
		if res.Total != want {
			return nil, fmt.Errorf("%s %q: index answers %d, data graph %d", op.Kind, op.Query, res.Total, want)
		}
		op.Want = want
		plan = append(plan, op)
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("empty query plan")
	}
	return plan, nil
}

// fragment generates one small auction document: a person, an item or an
// open auction under its own <site>, ten to twenty elements.
func fragment(i int) (string, error) {
	site := xmlgraph.NewElem("site")
	switch i % 3 {
	case 0:
		p := site.Child("people").Child("person")
		p.Attr("id", fmt.Sprintf("person%d", i))
		p.Child("name")
		p.Child("emailaddress")
		a := p.Child("address")
		a.Child("street")
		a.Child("city")
		a.Child("country")
		p.Child("profile").Child("education")
	case 1:
		it := site.Child("regions").Child("europe").Child("item")
		it.Attr("id", fmt.Sprintf("item%d", i))
		it.Child("location")
		it.Child("quantity")
		it.Child("name")
		it.Child("payment")
		it.Child("description").Child("text")
		it.Child("mailbox").Child("mail").Child("date")
	default:
		site.Child("people").Child("person").Attr("id", "seller").Child("name")
		oa := site.Child("open_auctions").Child("open_auction")
		oa.Attr("id", fmt.Sprintf("open_auction%d", i))
		oa.Child("initial")
		b := oa.Child("bidder")
		b.Attr("personref", "seller")
		b.Child("date")
		b.Child("increase")
		oa.Child("current")
		oa.Child("seller").Attr("personref", "seller")
		oa.Child("interval").Child("start")
	}
	var buf bytes.Buffer
	if err := site.WriteXML(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// edgeBatch is the standard 8-mutation edge batch: add four pairs, remove the
// four the previous batch added.
func edgeBatch(add, remove [][2]dkindex.NodeID) []dkindex.Mutation {
	ms := make([]dkindex.Mutation, 0, len(add)+len(remove))
	for _, e := range add {
		ms = append(ms, dkindex.Mutation{Op: dkindex.MutAddEdge, From: e[0], To: e[1]})
	}
	for _, e := range remove {
		ms = append(ms, dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: e[0], To: e[1]})
	}
	return ms
}

// prepare writes the inputs directory. Everything in it depends on the size alone.
func prepare(dir string, sz sizes) error {
	genStart := time.Now()
	ds, err := experiments.XMarkDataset(sz.scale, datasetSeed)
	if err != nil {
		return err
	}
	var xmlBuf bytes.Buffer
	if err := datagen.XMark(datagen.XMarkScale(sz.scale)).WriteXML(&xmlBuf); err != nil {
		return err
	}
	genS := time.Since(genStart).Seconds()
	if err := os.WriteFile(filepath.Join(dir, xmlFile), xmlBuf.Bytes(), 0o644); err != nil {
		return err
	}

	idx, err := dkindex.LoadXML(bytes.NewReader(xmlBuf.Bytes()), nil)
	if err != nil {
		return err
	}
	if st := idx.Stats(); st.DataNodes != ds.G.NumNodes() || st.DataEdges != ds.G.NumEdges() {
		return fmt.Errorf("data.xml loads to %d nodes / %d edges, the oracle graph has %d / %d",
			st.DataNodes, st.DataEdges, ds.G.NumNodes(), ds.G.NumEdges())
	}
	reqs := make(map[string]int)
	for l, k := range ds.W.Requirements() {
		reqs[ds.G.Labels().Name(l)] = k
	}
	if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutSetRequirements, Reqs: reqs}); err != nil {
		return err
	}
	plan, err := buildPlan(ds, idx)
	if err != nil {
		return err
	}
	if err := idx.SaveFile(filepath.Join(dir, indexFile)); err != nil {
		return err
	}

	// Four pairs go in before the checkpoint, so that each of the 16 logged
	// batches can remove the previous four and carry all 8 mutations.
	const storeEdges = 4 * (walTailGroups + 1)
	edges, err := ds.RandomEdges(storeEdges+sz.edgePool, datasetSeed)
	if err != nil {
		return err
	}
	pool := edges[:storeEdges]
	docs := make([]string, sz.docPool)
	for i := range docs {
		if docs[i], err = fragment(i); err != nil {
			return err
		}
	}

	// The prepared store: a checkpoint, then 16 group commits that are never
	// checkpointed.
	var store *dkindex.Store
	for b := 0; b <= walTailGroups; b++ {
		var prev [][2]dkindex.NodeID
		if b > 0 {
			prev = pool[4*(b-1) : 4*b]
		}
		acks, err := idx.ApplyBatch(edgeBatch(pool[4*b:4*b+4], prev))
		if err != nil {
			return err
		}
		for _, a := range acks {
			if a.Err != nil {
				return fmt.Errorf("preparing store, batch %d: %w", b, a.Err)
			}
		}
		if b == 0 {
			if store, err = dkindex.CreateStore(filepath.Join(dir, storeDir), idx, nil); err != nil {
				return err
			}
		}
	}
	dg, err := digest(idx)
	if err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}

	p := prepared{
		Version: prepVersion,
		Scale:   sz.scale, Nodes: ds.G.NumNodes(), Edges: ds.G.NumEdges(), Labels: ds.G.NumLabels(),
		XMLBytes: xmlBuf.Len(), GenS: genS, Reqs: reqs, Plan: plan,
		StoreEdges: pool, EdgePool: edges[storeEdges:], Docs: docs, Store: dg,
	}
	raw, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, prepFile), raw, 0o644)
}

func loadPrepared(dir string) (*prepared, error) {
	raw, err := os.ReadFile(filepath.Join(dir, prepFile))
	if err != nil {
		return nil, err
	}
	var p prepared
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", prepFile, err)
	}
	return &p, nil
}
