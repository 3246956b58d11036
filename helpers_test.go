package dkindex

import (
	"bytes"
	"fmt"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/rpe"
	"dkindex/internal/xmlgraph"
)

// query runs one request and unpacks the result the way most assertions in
// this package read it: the listed nodes, the cost, the error.
func query(x *Index, kind Kind, text string) ([]NodeID, QueryStats, error) {
	res, err := x.Run(Request{Kind: kind, Text: text})
	return res.Nodes, res.Stats, err
}

// compileRPE compiles an expression the test knows to be well formed.
func compileRPE(tb testing.TB, src string, labels *graph.LabelTable) *rpe.Compiled {
	tb.Helper()
	e, err := rpe.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	return rpe.CompileExpr(e, labels)
}

// mustApply applies one mutation and fails the test if it is rejected.
func mustApply(tb testing.TB, x *Index, m Mutation) {
	tb.Helper()
	if _, err := x.Apply(m); err != nil {
		tb.Fatalf("%s: %v", m.Op, err)
	}
}

// auctionFragment is a small XMark-shaped document under its own <site>, ten
// to twenty elements: a person, an item or an open auction, by i mod 3. It is
// the benchmark's document pool (benchmark/prep.go), spelled again because
// that module is not importable.
func auctionFragment(tb testing.TB, i int) []byte {
	tb.Helper()
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
		tb.Fatal(err)
	}
	return buf.Bytes()
}
