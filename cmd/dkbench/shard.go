// The shard experiment measures scatter-gather serving: one logical index
// partitioned into N document-routed shards, queried through the Engine's
// parallel fan-out and written through its shard-parallel group commit. For
// shards in {1, 2, 4, 8} it reports merged query throughput (result caches
// off, so every query pays the full scatter + merge) and sustained durable
// write throughput (batches split by owning shard, per-shard WALs fsynced
// concurrently) against the monolithic index on the same corpus. Before any
// timing it audits bit-identity: on multi-document XMark, NASA and DBLP
// corpora the merged results must fingerprint identically to the monolith's.
// The result is recorded as BENCH_10.json via -shard-json; -exp shard-audit
// runs the audit alone (the CI smoke).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dkindex"
	"dkindex/internal/datagen"
	"dkindex/internal/graph"
	"dkindex/internal/shard"
	"dkindex/internal/xmlgraph"
)

// shardOptions parameterizes the shard experiment (flags in main; the load
// shape reuses the serve-* and write-* knobs so BENCH_10 is comparable).
type shardOptions struct {
	Docs      int           // documents per corpus
	DocScale  float64       // datagen scale per document
	Duration  time.Duration // measured duration per throughput phase
	Readers   int           // concurrent query goroutines
	Writers   int           // concurrent writer goroutines
	Seed      int64
	AuditOnly bool   // -exp shard-audit: skip the timed phases
	JSONOut   string // BENCH_10.json target ("" = don't write)
}

// shardTarget is what both serving topologies expose to the harness: the
// monolithic *dkindex.Index and the sharded *shard.Engine.
type shardTarget interface {
	Run(dkindex.Request) (dkindex.Result, error)
	Apply(dkindex.Mutation) (dkindex.Ack, error)
	ApplyBatch([]dkindex.Mutation) ([]dkindex.Ack, error)
	SetResultCache(int)
}

// shardAuditRow records one dataset's merged-vs-monolithic fingerprint.
type shardAuditRow struct {
	Dataset     string `json:"dataset"`
	Shards      int    `json:"shards"`
	Docs        int    `json:"docs"`
	Queries     int    `json:"queries"`
	Fingerprint string `json:"fingerprint"`
	Match       bool   `json:"match"`
}

// shardPoint is one topology's measured throughput. Shards 0 marks the
// monolithic baseline.
type shardPoint struct {
	Shards  int    `json:"shards"`
	Queries uint64 `json:"queries"`
	// QueryThroughput is merged queries per second with result caches
	// disabled: every query pays the scatter, per-shard evaluation and merge.
	QueryThroughput float64 `json:"queryThroughput"`
	QuerySpeedup    float64 `json:"querySpeedup"`
	Mutations       uint64  `json:"mutations"`
	Rejected        uint64  `json:"rejected"`
	// WriteThroughput is acknowledged durable mutations per second: each
	// batch splits by owning shard and the per-shard WAL commits run
	// concurrently.
	WriteThroughput float64 `json:"writeThroughput"`
	WriteSpeedup    float64 `json:"writeSpeedup"`
}

// shardResult is the JSON shape recorded as BENCH_10.json.
type shardResult struct {
	Dataset    string          `json:"dataset"`
	Docs       int             `json:"docs"`
	Readers    int             `json:"readers"`
	Writers    int             `json:"writers"`
	DurationNS time.Duration   `json:"durationNS"`
	Audits     []shardAuditRow `json:"audits"`
	Monolith   shardPoint      `json:"monolith"`
	Points     []shardPoint    `json:"points"`
}

// shardCorpus generates docs documents of the named dataset family, each
// with a distinct seed, serialized as XML so the monolith and every engine
// parse identical bytes.
func shardCorpus(kind string, docs int, scale float64, seed int64) ([][]byte, error) {
	out := make([][]byte, docs)
	for i := range out {
		var doc *xmlgraph.Elem
		switch kind {
		case "xmark":
			cfg := datagen.XMarkScale(scale)
			cfg.Seed = seed + int64(i)
			doc = datagen.XMark(cfg)
		case "nasa":
			cfg := datagen.NASAScale(scale)
			cfg.Seed = seed + int64(i)
			doc = datagen.NASA(cfg)
		case "dblp":
			cfg := datagen.DBLPScale(scale)
			cfg.Seed = seed + int64(i)
			doc = datagen.DBLP(cfg)
		default:
			return nil, fmt.Errorf("shard: unknown corpus %q", kind)
		}
		var buf bytes.Buffer
		if err := doc.WriteXML(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// shardQueries is the per-dataset reference mix: one path, one regular path
// expression and one twig, run unlimited so the full merged sets are
// compared and timed.
func shardQueries(kind string) []dkindex.Request {
	switch kind {
	case "nasa":
		return []dkindex.Request{
			{Kind: dkindex.KindPath, Text: "datasets.dataset.title"},
			{Kind: dkindex.KindRPE, Text: "dataset//keyword"},
			{Kind: dkindex.KindTwig, Text: "dataset[author].title"},
		}
	case "dblp":
		return []dkindex.Request{
			{Kind: dkindex.KindPath, Text: "dblp.article.title"},
			{Kind: dkindex.KindRPE, Text: "dblp//author"},
			{Kind: dkindex.KindTwig, Text: "article[cite].year"},
		}
	default: // xmark
		return []dkindex.Request{
			{Kind: dkindex.KindPath, Text: "site.people.person.name"},
			{Kind: dkindex.KindRPE, Text: "site//item"},
			{Kind: dkindex.KindTwig, Text: "item[incategory].name"},
		}
	}
}

// shardMonolith builds the unsharded reference: a root-only index fed the
// same documents in the same order the engine receives them.
func shardMonolith() *dkindex.Index {
	g := graph.New()
	g.AddRoot()
	return dkindex.FromGraph(g, nil)
}

// loadCorpus feeds every document into the target and returns each
// document's mapping (parsed node -> global id), the raw material for the
// write plan.
func loadCorpus(t shardTarget, corpus [][]byte) ([][]dkindex.NodeID, error) {
	maps := make([][]dkindex.NodeID, len(corpus))
	for i, doc := range corpus {
		ack, err := t.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: doc, DocOptions: datagen.LoadOptions()})
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		maps[i] = ack.Mapping
	}
	return maps, nil
}

// shardFingerprint folds the merged node sets and totals of the query mix
// into one hash; identical serving states produce identical fingerprints.
func shardFingerprint(t shardTarget, reqs []dkindex.Request) (string, error) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, req := range reqs {
		res, err := t.Run(req)
		if err != nil {
			return "", fmt.Errorf("%s %q: %w", req.Kind, req.Text, err)
		}
		put(uint64(res.Total))
		put(uint64(len(res.Nodes)))
		for _, n := range res.Nodes {
			put(uint64(n))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// shardAudit builds the monolith and a sharded engine over one corpus and
// compares their fingerprints.
func shardAudit(kind string, shards int, opt shardOptions) (shardAuditRow, error) {
	row := shardAuditRow{Dataset: kind, Shards: shards, Docs: opt.Docs}
	corpus, err := shardCorpus(kind, opt.Docs, opt.DocScale, opt.Seed)
	if err != nil {
		return row, err
	}
	mono := shardMonolith()
	if _, err := loadCorpus(mono, corpus); err != nil {
		return row, fmt.Errorf("%s monolith: %w", kind, err)
	}
	eng, err := shard.New(shards)
	if err != nil {
		return row, err
	}
	if _, err := loadCorpus(eng, corpus); err != nil {
		return row, fmt.Errorf("%s engine: %w", kind, err)
	}
	reqs := shardQueries(kind)
	row.Queries = len(reqs)
	want, err := shardFingerprint(mono, reqs)
	if err != nil {
		return row, fmt.Errorf("%s monolith: %w", kind, err)
	}
	got, err := shardFingerprint(eng, reqs)
	if err != nil {
		return row, fmt.Errorf("%s engine: %w", kind, err)
	}
	row.Fingerprint = got
	row.Match = got == want
	return row, nil
}

// shardEdgePlan gives each writer a private edge pair inside every document
// (sampled from the document's committed mapping, global root excluded), so
// paired add/remove cycles from concurrent writers never collide and every
// batch spreads across all owning shards.
func shardEdgePlan(maps [][]dkindex.NodeID, writers int, seed int64) [][][2]dkindex.NodeID {
	rng := rand.New(rand.NewSource(seed))
	plan := make([][][2]dkindex.NodeID, writers)
	for w := range plan {
		plan[w] = make([][2]dkindex.NodeID, len(maps))
		for d, m := range maps {
			nodes := m[1:] // m[0] is the global root the document grafted under
			from := nodes[rng.Intn(len(nodes))]
			to := nodes[rng.Intn(len(nodes))]
			plan[w][d] = [2]dkindex.NodeID{from, to}
		}
	}
	return plan
}

// shardQueryPhase drives Readers goroutines over the query mix for the
// measured duration and returns completed queries and queries per second.
// Result caches are off, so this is the cost of real scatter + merge.
func shardQueryPhase(t shardTarget, reqs []dkindex.Request, opt shardOptions) (uint64, float64, error) {
	t.SetResultCache(0)
	var done atomic.Uint64
	var firstErr atomic.Value
	deadline := time.Now().Add(opt.Duration)
	var wg sync.WaitGroup
	for r := 0; r < opt.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; time.Now().Before(deadline); i++ {
				if _, err := t.Run(reqs[i%len(reqs)]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				done.Add(1)
			}
		}(r)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return 0, 0, err
	}
	n := done.Load()
	return n, float64(n) / opt.Duration.Seconds(), nil
}

// shardWritePhase drives Writers goroutines, each looping batches with one
// edge mutation per document (alternating add/remove of the writer's private
// pair), for the measured duration. Against the engine a batch splits across
// every shard and the per-shard WAL commits run concurrently; against the
// monolith the same batch is one serial commit.
func shardWritePhase(t shardTarget, plan [][][2]dkindex.NodeID, opt shardOptions) (acked, rejected uint64, rate float64, err error) {
	var ack, rej atomic.Uint64
	var firstErr atomic.Value
	deadline := time.Now().Add(opt.Duration)
	var wg sync.WaitGroup
	for w := 0; w < opt.Writers; w++ {
		pairs := plan[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]dkindex.Mutation, len(pairs))
			for round := 0; time.Now().Before(deadline); round++ {
				op := dkindex.MutAddEdge
				if round%2 == 1 {
					op = dkindex.MutRemoveEdge
				}
				for d, p := range pairs {
					batch[d] = dkindex.Mutation{Op: op, From: p[0], To: p[1]}
				}
				acks, err := t.ApplyBatch(batch)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				for _, a := range acks {
					if a.Err != nil {
						rej.Add(1)
					} else {
						ack.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return 0, 0, 0, err
	}
	return ack.Load(), rej.Load(), float64(ack.Load()) / opt.Duration.Seconds(), nil
}

// shardMeasure runs both phases against one topology. build returns a fresh
// durable target for the write phase; the query phase reuses it after the
// writes so both see the same (net-unchanged) state.
func shardMeasure(shards int, corpus [][]byte, reqs []dkindex.Request, opt shardOptions) (shardPoint, error) {
	pt := shardPoint{Shards: shards}
	dir, err := os.MkdirTemp("", "dkbench-shard-*")
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)

	var target shardTarget
	var maps [][]dkindex.NodeID
	if shards == 0 {
		idx := shardMonolith()
		store, err := dkindex.CreateStore(dir, idx, nil)
		if err != nil {
			return pt, err
		}
		defer store.Close()
		if maps, err = loadCorpus(idx, corpus); err != nil {
			return pt, err
		}
		target = idx
	} else {
		eng, err := shard.CreateSharded(dir, shards, nil)
		if err != nil {
			return pt, err
		}
		defer eng.Close()
		if maps, err = loadCorpus(eng, corpus); err != nil {
			return pt, err
		}
		target = eng
	}

	if pt.Mutations, pt.Rejected, pt.WriteThroughput, err = shardWritePhase(target, shardEdgePlan(maps, opt.Writers, opt.Seed), opt); err != nil {
		return pt, fmt.Errorf("write phase: %w", err)
	}
	if pt.Queries, pt.QueryThroughput, err = shardQueryPhase(target, reqs, opt); err != nil {
		return pt, fmt.Errorf("query phase: %w", err)
	}
	return pt, nil
}

// shardExperiment audits merged-vs-monolithic bit-identity on all three
// dataset families, then (unless AuditOnly) measures query and write
// throughput at shards in {1, 2, 4, 8} against the monolithic baseline.
func shardExperiment(stdout io.Writer, opt shardOptions) error {
	if opt.Docs <= 0 || opt.Readers <= 0 || opt.Writers <= 0 {
		return fmt.Errorf("shard: docs, readers and writers must be positive")
	}
	res := shardResult{
		Dataset: "xmark", Docs: opt.Docs, Readers: opt.Readers,
		Writers: opt.Writers, DurationNS: opt.Duration,
	}

	kinds := []string{"xmark", "nasa", "dblp"}
	if opt.AuditOnly {
		kinds = kinds[:1] // the CI smoke: XMark only, no timing
	}
	fmt.Fprintf(stdout, "Sharded scatter-gather (%d documents per corpus, scale %g per document)\n", opt.Docs, opt.DocScale)
	fmt.Fprintf(stdout, "%-8s %7s %6s %8s %18s %6s\n", "audit", "shards", "docs", "queries", "fingerprint", "match")
	for _, kind := range kinds {
		row, err := shardAudit(kind, 4, opt)
		if err != nil {
			return err
		}
		res.Audits = append(res.Audits, row)
		fmt.Fprintf(stdout, "%-8s %7d %6d %8d %18s %6v\n",
			row.Dataset, row.Shards, row.Docs, row.Queries, row.Fingerprint, row.Match)
		if !row.Match {
			return fmt.Errorf("shard: %s merged results diverge from the monolith", kind)
		}
	}
	if opt.AuditOnly {
		fmt.Fprintf(stdout, "shard audit: merged results bit-identical to the monolith\n")
		return nil
	}

	corpus, err := shardCorpus("xmark", opt.Docs, opt.DocScale, opt.Seed)
	if err != nil {
		return err
	}
	reqs := shardQueries("xmark")
	if res.Monolith, err = shardMeasure(0, corpus, reqs, opt); err != nil {
		return fmt.Errorf("monolith: %w", err)
	}
	res.Monolith.QuerySpeedup, res.Monolith.WriteSpeedup = 1, 1
	for _, n := range []int{1, 2, 4, 8} {
		pt, err := shardMeasure(n, corpus, reqs, opt)
		if err != nil {
			return fmt.Errorf("%d shards: %w", n, err)
		}
		if res.Monolith.QueryThroughput > 0 {
			pt.QuerySpeedup = pt.QueryThroughput / res.Monolith.QueryThroughput
		}
		if res.Monolith.WriteThroughput > 0 {
			pt.WriteSpeedup = pt.WriteThroughput / res.Monolith.WriteThroughput
		}
		res.Points = append(res.Points, pt)
	}

	fmt.Fprintf(stdout, "\n%-10s %9s %9s %7s %10s %8s %10s %7s\n",
		"topology", "queries", "qry/s", "qry-x", "mutations", "rejected", "muts/s", "wr-x")
	row := func(pt shardPoint) {
		name := "monolith"
		if pt.Shards > 0 {
			name = fmt.Sprintf("%d shards", pt.Shards)
		}
		fmt.Fprintf(stdout, "%-10s %9d %9.0f %6.2fx %10d %8d %10.0f %6.2fx\n",
			name, pt.Queries, pt.QueryThroughput, pt.QuerySpeedup,
			pt.Mutations, pt.Rejected, pt.WriteThroughput, pt.WriteSpeedup)
	}
	row(res.Monolith)
	for _, pt := range res.Points {
		row(pt)
	}

	if opt.JSONOut != "" {
		f, err := os.Create(opt.JSONOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(&res)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "shard: wrote %s\n", opt.JSONOut)
	}
	return nil
}
