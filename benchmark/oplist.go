package main

import (
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math/rand"

	"dkindex"
)

// roundOps is the op list of one round. An entry >= 0 is a read: an index
// into the query plan. An entry < 0 is a write: body -(entry+1) of bodies, a
// POST /v1/mutate payload.
type roundOps struct {
	ops    []int32
	bodies [][]byte
}

// opList produces a workload's rounds. Everything it draws comes from the
// seed, never from a clock, so a seed fixes the whole run and two runs of one
// seed execute identical work; sum folds every round produced so far into the
// op-list fingerprint the environment block prints.
type opList struct {
	next func() roundOps
	sum  hash.Hash64
}

func (l *opList) round() roundOps {
	r := l.next()
	var b [4]byte
	for _, o := range r.ops {
		binary.LittleEndian.PutUint32(b[:], uint32(o))
		l.sum.Write(b[:])
	}
	for _, body := range r.bodies {
		l.sum.Write(body)
	}
	return r
}

// readList is the read-only op list: every round is `passes` passes over the
// plan, each pass a fresh seeded shuffle. Every round therefore runs the same
// multiset of queries whatever the seed; only their order changes.
func readList(planLen, passes int, seed int64) *opList {
	rng := rand.New(rand.NewSource(seed))
	return &opList{sum: fnv.New64a(), next: func() roundOps {
		ops := make([]int32, 0, passes*planLen)
		for p := 0; p < passes; p++ {
			for _, i := range rng.Perm(planLen) {
				ops = append(ops, int32(i))
			}
		}
		return roundOps{ops: ops}
	}}
}

// mutateBody renders a POST /v1/mutate batch.
func mutateBody(ms []dkindex.Mutation) []byte {
	type item struct {
		Op   string          `json:"op"`
		From *dkindex.NodeID `json:"from,omitempty"`
		To   *dkindex.NodeID `json:"to,omitempty"`
		Doc  string          `json:"doc,omitempty"`
	}
	items := make([]item, len(ms))
	for i := range ms {
		m := &ms[i]
		items[i] = item{Op: string(m.Op)}
		if m.Op == dkindex.MutAddDocument {
			items[i].Doc = string(m.Doc)
		} else {
			items[i].From, items[i].To = &m.From, &m.To
		}
	}
	raw, err := json.Marshal(map[string]any{"mutations": items})
	if err != nil {
		panic(err) // strings and integers always marshal
	}
	return raw
}

// edgeCycle walks one seeded permutation of the edge pool round and round,
// four pairs at a time: each batch adds the next four and removes the four the
// previous batch added. The pool is fixed by the dataset, so after one walk
// over it the similarities those edges can lower have been lowered, and every
// later round meets the same index whatever the seed.
type edgeCycle struct {
	order [][2]dkindex.NodeID
	at    int
	prev  [][2]dkindex.NodeID
}

func newEdgeCycle(pool [][2]dkindex.NodeID, carry [][2]dkindex.NodeID, rng *rand.Rand) *edgeCycle {
	order := append([][2]dkindex.NodeID(nil), pool...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &edgeCycle{order: order, prev: carry}
}

func (c *edgeCycle) batch() []byte {
	add := make([][2]dkindex.NodeID, 4)
	for i := range add {
		add[i] = c.order[(c.at+i)%len(c.order)]
	}
	c.at = (c.at + 4) % len(c.order)
	body := mutateBody(edgeBatch(add, c.prev))
	c.prev = add
	return body
}

// writeList is write_durable's op list: per 16 ops, 15 edge batches and one
// batch of 8 add_document mutations.
func writeList(p *prepared, opsPerRound int, seed int64) *opList {
	rng := rand.New(rand.NewSource(seed))
	edges := newEdgeCycle(p.EdgePool, nil, rng)
	docOrder := rng.Perm(len(p.Docs))
	docAt := 0
	return &opList{sum: fnv.New64a(), next: func() roundOps {
		r := roundOps{ops: make([]int32, opsPerRound), bodies: make([][]byte, opsPerRound)}
		for i := range r.ops {
			r.ops[i] = int32(-(i + 1))
			if i%16 != 15 {
				r.bodies[i] = edges.batch()
				continue
			}
			ms := make([]dkindex.Mutation, mutationsPerBatch)
			for j := range ms {
				ms[j] = dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: []byte(p.Docs[docOrder[docAt%len(docOrder)]])}
				docAt++
			}
			r.bodies[i] = mutateBody(ms)
		}
		return r
	}}
}

// zipfMultiset returns n plan indices whose frequencies follow Zipf(s=1) over
// the plan in plan order (op 0 the most popular), rounded by largest
// remainder so that they sum to n exactly. The multiset belongs to the
// dataset; a seed only shuffles it.
func zipfMultiset(planLen, n int) []int32 {
	var h float64
	for r := 1; r <= planLen; r++ {
		h += 1 / float64(r)
	}
	counts := make([]int, planLen)
	rems := make([]float64, planLen)
	total := 0
	for i := range counts {
		exact := float64(n) / (float64(i+1) * h)
		counts[i] = int(exact)
		total += counts[i]
		rems[i] = exact - float64(counts[i])
	}
	// Largest remainders first; ties go to the more popular op.
	for ; total < n; total++ {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
	}
	out := make([]int32, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, int32(i))
		}
	}
	return out
}

// mixedList is mixed_rw's op list: per round `cycles` cycles of `reads` reads
// followed by one 8-edge batch. The Zipf multiset is dealt round-robin onto
// the cycles once, so which queries meet in a cycle — and with it every
// cycle's hits and misses — belongs to the dataset. A seed shuffles the reads
// within a cycle and the order of the cycles; the writes fall at fixed
// positions of the op sequence.
func mixedList(p *prepared, cycles, reads int, seed int64) *opList {
	rng := rand.New(rand.NewSource(seed))
	edges := newEdgeCycle(p.EdgePool, p.StoreEdges[len(p.StoreEdges)-4:], rng)
	deal := make([][]int32, cycles)
	for j, op := range zipfMultiset(len(p.Plan), cycles*reads) {
		deal[j%cycles] = append(deal[j%cycles], op)
	}
	return &opList{sum: fnv.New64a(), next: func() roundOps {
		r := roundOps{ops: make([]int32, 0, cycles*(reads+1)), bodies: make([][]byte, 0, cycles)}
		for _, c := range rng.Perm(cycles) {
			at := len(r.ops)
			r.ops = append(r.ops, deal[c]...)
			draw := r.ops[at:]
			rng.Shuffle(len(draw), func(i, j int) { draw[i], draw[j] = draw[j], draw[i] })
			r.bodies = append(r.bodies, edges.batch())
			r.ops = append(r.ops, int32(-len(r.bodies)))
		}
		return r
	}}
}
