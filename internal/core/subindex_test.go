package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/xmlgraph"
)

// auctionFragments are the three shapes of the benchmark's document pool: a
// person, an item and an open auction, each under its own <site>.
var auctionFragments = []string{
	`<site><people><person id="person0"><name/><emailaddress/><address><street/><city/><country/></address><profile><education/></profile></person></people></site>`,
	`<site><regions><europe><item id="item1"><location/><quantity/><name/><payment/><description><text/></description><mailbox><mail><date/></mail></mailbox></item></europe></regions></site>`,
	`<site><people><person id="seller"><name/></person></people><open_auctions><open_auction id="open_auction2"><initial/><bidder personref="seller"><date/><increase/></bidder><current/><seller personref="seller"/><interval><start/></interval></open_auction></open_auctions></site>`,
}

// sameSubIndex holds Algorithm 3's step 1 to its definition: the sub-index of
// h under dk's requirements (the one CheckDocument builds; AddSubgraph builds
// the forest's under the requirements broadcast over the index's labels too)
// must be, block for block, the D(k)-index Build makes of a standalone copy
// of h over the index's labels — the same
// labels, ascending extents, similarities, and ascending parents and
// children. The copy is built the way AddSubgraph built one before it kept
// I_H as a partition, so the oracle shares nothing with the code under test.
func sameSubIndex(dk *core.DK, h index.Document) error {
	got, err := dk.SubIndex(h)
	if err != nil {
		return err
	}
	hg := graph.NewWithLabels(dk.IG.Data().Labels().Clone())
	hg.AddRoot()
	for n := 1; n < h.NumNodes(); n++ {
		hg.AddNode(h.LabelName(graph.NodeID(n)))
	}
	for n := 0; n < h.NumNodes(); n++ {
		for _, c := range h.Children(graph.NodeID(n)) {
			hg.AddEdge(graph.NodeID(n), c)
		}
	}
	want := core.Build(hg, dk.LabelReqs).IG
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("%d blocks, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.Root() != want.IndexOf(hg.Root()) {
		return fmt.Errorf("root block %d, want %d", got.Root(), want.IndexOf(hg.Root()))
	}
	for b := 0; b < want.NumNodes(); b++ {
		n := graph.NodeID(b)
		if got.Label(n) != want.Label(n) || got.K(n) != want.K(n) {
			return fmt.Errorf("block %d: label %d k %d, want %d and %d", b, got.Label(n), got.K(n), want.Label(n), want.K(n))
		}
		for _, c := range []struct {
			what      string
			got, want []graph.NodeID
		}{
			{"members", got.Members(n), want.Extent(n)},
			{"parents", got.Parents(n), want.Parents(n)},
			{"children", got.Children(n), want.Children(n)},
		} {
			if !slices.Equal(c.got, c.want) {
				return fmt.Errorf("block %d: %s %v, want %v", b, c.what, c.got, c.want)
			}
		}
	}
	return nil
}

// TestSubIndexIsTheIndexStepOneWouldBuild runs sameSubIndex over the auction
// fragments, the generated XMark documents experiments.DocInsertion inserts
// (as the graph the generator loads and as the compact form a mutation
// parses; they carry reference edges), and scripted documents over random
// graphs, which now and then bring a label the index has never seen.
func TestSubIndexIsTheIndexStepOneWouldBuild(t *testing.T) {
	ds, err := experiments.XMarkDataset(0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	xmark := core.Build(ds.G, ds.W.Requirements())
	for i, frag := range auctionFragments {
		d, _, err := xmlgraph.LoadDoc(strings.NewReader(frag), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSubIndex(xmark, d); err != nil {
			t.Fatalf("auction fragment %d: %v", i, err)
		}
	}
	for i := int64(0); i < 3; i++ {
		cfg := datagen.XMarkScale(0.005)
		cfg.Seed = 1 + i + 100
		var buf bytes.Buffer
		if err := datagen.XMark(cfg).WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		g, _, err := xmlgraph.Load(bytes.NewReader(buf.Bytes()), datagen.LoadOptions())
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := xmlgraph.LoadDoc(bytes.NewReader(buf.Bytes()), datagen.LoadOptions())
		if err != nil {
			t.Fatal(err)
		}
		for form, h := range map[string]index.Document{"graph": g, "compact form": d} {
			if err := sameSubIndex(xmark, h); err != nil {
				t.Fatalf("generated document %d as a %s: %v", i, form, err)
			}
		}
	}
	docs := 0
	for seed := int64(1); seed <= 24; seed++ {
		s := &script{data: randomScript(seed, 600)}
		g, reqs := scriptedGraph(s, 150)
		dk := core.Build(g, reqs)
		for ; !s.done(); docs++ {
			if err := sameSubIndex(dk, scriptedDoc(s, g)); err != nil {
				t.Fatalf("seed %d, scripted document %d: %v", seed, docs, err)
			}
		}
	}
	t.Logf("%d scripted documents", docs)
}
