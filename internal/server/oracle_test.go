package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"dkindex"
)

// The structs the query endpoints built and reflected through encoding/json
// before the append encoder replaced them. They live on here as the oracle:
// whatever the encoder writes must be, byte for byte, what json.Encoder
// writes for these.

// queryResponse is the JSON shape of query results.
type queryResponse struct {
	Query      string             `json:"query"`
	Kind       string             `json:"kind"`
	Count      int                `json:"count"`
	Results    []queryResult      `json:"results"`
	Cost       dkindex.QueryStats `json:"cost"`
	CacheHit   bool               `json:"cacheHit"`
	Traced     bool               `json:"traced"`
	Generation uint64             `json:"generation"`
}

type queryResult struct {
	Node  dkindex.NodeID `json:"node"`
	Label string         `json:"label"`
}

// oracleResponse builds the old response struct for one answered query.
func oracleResponse(kind dkindex.Kind, text string, res *dkindex.Result) *queryResponse {
	out := &queryResponse{
		Query:      text,
		Kind:       string(kind),
		Count:      res.Total,
		Cost:       res.Stats,
		CacheHit:   res.CacheHit,
		Traced:     res.Traced,
		Generation: res.Generation,
		Results:    make([]queryResult, 0, len(res.Nodes)),
	}
	for _, n := range res.Nodes {
		out.Results = append(out.Results, queryResult{Node: n, Label: res.LabelName(n)})
	}
	return out
}

// oracleJSON encodes v the way writeJSON does.
func oracleJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
