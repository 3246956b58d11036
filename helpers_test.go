package dkindex

import "testing"

// query runs one request and unpacks the result the way most assertions in
// this package read it: the listed nodes, the cost, the error.
func query(x *Index, kind Kind, text string) ([]NodeID, QueryStats, error) {
	res, err := x.Run(Request{Kind: kind, Text: text})
	return res.Nodes, res.Stats, err
}

// mustApply applies one mutation and fails the test if it is rejected.
func mustApply(tb testing.TB, x *Index, m Mutation) {
	tb.Helper()
	if _, err := x.Apply(m); err != nil {
		tb.Fatalf("%s: %v", m.Op, err)
	}
}
