// Package workload generates and mines query loads, following the paper's
// experimental protocol (Section 6.1): test paths of bounded length are
// drawn from the data — a few long paths first, then shorter paths that
// branch off them, simulating the correlated query patterns of real XML
// databases — and per-label local similarity requirements are mined so that
// evaluating the load on the D(k)-index needs no validation.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
)

// Workload is a set of path queries over one data graph.
type Workload struct {
	Queries []eval.Query
	labels  *graph.LabelTable
}

// Config controls generation.
type Config struct {
	// N is the number of test paths (the paper uses 100).
	N int
	// MinLen and MaxLen bound query lengths in labels (the paper uses 2
	// and 5).
	MinLen, MaxLen int
	// LongPaths is how many independent long walks seed the branching
	// process (defaults to N/10, at least 1).
	LongPaths int
	Seed      int64
}

// DefaultConfig is the paper's protocol: 100 paths of 2..5 labels.
func DefaultConfig(seed int64) Config {
	return Config{N: 100, MinLen: 2, MaxLen: 5, Seed: seed}
}

// Generate draws a workload from the data graph. Every generated query has
// at least one result by construction (queries follow node paths that exist).
// Queries are deduplicated; generation stops early if the graph cannot
// support enough distinct paths.
func Generate(g *graph.Graph, cfg Config) (*Workload, error) {
	if cfg.N <= 0 || cfg.MinLen < 1 || cfg.MaxLen < cfg.MinLen {
		return nil, fmt.Errorf("workload: invalid config %+v", cfg)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("workload: empty graph")
	}
	long := cfg.LongPaths
	if long <= 0 {
		long = cfg.N / 10
		if long < 1 {
			long = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Phase 1: long query paths — random walks of MaxLen labels. The walked
	// node sequences are kept so shorter paths can branch off them.
	var walks [][]graph.NodeID
	for len(walks) < long {
		w := randomWalk(rng, g, graph.NodeID(rng.Intn(g.NumNodes())), cfg.MaxLen)
		if len(w) >= cfg.MinLen {
			walks = append(walks, w)
		}
	}

	w := &Workload{labels: g.Labels()}
	seen := make(map[string]bool)
	add := func(path []graph.NodeID) bool {
		q := make(eval.Query, len(path))
		for i, n := range path {
			q[i] = g.Label(n)
		}
		key := q.Format(g.Labels())
		if seen[key] {
			return false
		}
		seen[key] = true
		w.Queries = append(w.Queries, q)
		return true
	}
	for _, walk := range walks {
		if len(w.Queries) >= cfg.N {
			break
		}
		add(walk)
	}

	// Phase 2: branching shorter paths — start somewhere on a long walk,
	// follow it for a while, then walk off randomly.
	misses := 0
	for len(w.Queries) < cfg.N && misses < cfg.N*50 {
		walk := walks[rng.Intn(len(walks))]
		wantLen := cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)
		start := rng.Intn(len(walk))
		follow := rng.Intn(len(walk) - start)
		if follow >= wantLen {
			follow = wantLen - 1
		}
		path := append([]graph.NodeID(nil), walk[start:start+follow+1]...)
		tail := randomWalk(rng, g, path[len(path)-1], wantLen-len(path)+1)
		path = append(path, tail[1:]...)
		if len(path) < cfg.MinLen || !add(path) {
			misses++
		}
	}
	// Phase 3: if branching off the seed walks saturated before reaching N
	// (regular structures have few distinct label paths near any one walk),
	// widen the net with fresh random walks anywhere in the graph.
	misses = 0
	for len(w.Queries) < cfg.N && misses < cfg.N*50 {
		wantLen := cfg.MinLen + rng.Intn(cfg.MaxLen-cfg.MinLen+1)
		path := randomWalk(rng, g, graph.NodeID(rng.Intn(g.NumNodes())), wantLen)
		if len(path) < cfg.MinLen || !add(path) {
			misses++
		}
	}
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("workload: could not generate any query")
	}
	return w, nil
}

// randomWalk walks downward from start for at most maxLen labels (including
// the start node), stopping early at sinks.
func randomWalk(rng *rand.Rand, g *graph.Graph, start graph.NodeID, maxLen int) []graph.NodeID {
	path := []graph.NodeID{start}
	cur := start
	for len(path) < maxLen {
		ch := g.Children(cur)
		if len(ch) == 0 {
			break
		}
		cur = ch[rng.Intn(len(ch))]
		path = append(path, cur)
	}
	return path
}

// Requirements mines the per-label local similarity requirements from the
// workload, as the experiments specify: a label's requirement is the longest
// query (in edges) whose result carries that label, so no query of the load
// needs validation — up to core.MaxK, past which queries validate.
func (w *Workload) Requirements() core.Requirements {
	reqs := make(core.Requirements)
	for _, q := range w.Queries {
		last := q[len(q)-1]
		if m := min(q.Length(), core.MaxK); reqs[last] < m {
			reqs[last] = m
		}
	}
	return reqs
}

// MaxLength returns the longest query length (in edges).
func (w *Workload) MaxLength() int {
	max := 0
	for _, q := range w.Queries {
		if q.Length() > max {
			max = q.Length()
		}
	}
	return max
}

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.Queries) }

// Format renders the workload one query per line.
func (w *Workload) Format() string {
	var b strings.Builder
	for _, q := range w.Queries {
		b.WriteString(q.Format(w.labels))
		b.WriteByte('\n')
	}
	return b.String()
}
