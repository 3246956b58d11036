package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"dkindex"
)

// oracleMutateBody decodes a body the way the endpoint did before it had a
// scanner: encoding/json into the item structs, unknown fields rejected, and
// the whole body one JSON value.
func oracleMutateBody(b []byte) (mutateBody, error) {
	if !json.Valid(b) {
		return mutateBody{}, errors.New("not one JSON value")
	}
	var v mutateJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return mutateBody{}, err
	}
	body := mutateBody{inline: v.mutateItem.mutation()}
	if v.Mutations != nil {
		body.batch = []dkindex.Mutation{}
		for _, it := range v.Mutations {
			body.batch = append(body.batch, it.mutation())
		}
	}
	return body, nil
}

// sameMutateBody compares two decoded bodies, an absent doc equal to an
// empty one.
func sameMutateBody(a, b mutateBody) bool {
	norm := func(body mutateBody) mutateBody {
		ms := append([]dkindex.Mutation{body.inline}, body.batch...)
		for i := range ms {
			if len(ms[i].Doc) == 0 {
				ms[i].Doc = nil
			}
		}
		return mutateBody{inline: ms[0], batch: ms[1:]}
	}
	return (a.batch == nil) == (b.batch == nil) && reflect.DeepEqual(norm(a), norm(b))
}

// FuzzMutateBodyAgainstEncodingJSON holds the /v1/mutate body scanner to
// encoding/json: whatever body it reads, encoding/json reads too, as the same
// mutations; and decodeMutateBody, which asks encoding/json about the rest,
// accepts exactly the bodies encoding/json reads as one value.
func FuzzMutateBodyAgainstEncodingJSON(f *testing.F) {
	for _, body := range []string{
		`{"mutations":[{"op":"add_edge","from":1,"to":2},{"op":"remove_edge","from":3,"to":4}]}`,
		`{"op":"promote","label":"title","k":2}`,
		` { "op" : "add_document" , "doc" : "<a>\u003cb/\u003e &amp; \"q\" \\ \/ é \ud83d\ude00</a>" } `,
		`{"mutations":[{"op":"add_document","doc":"<x>caf` + "\xc3\xa9\xff" + `</x>"}]}`,
		`{"mutations":[]}`, `{"mutations":null}`, `{}`, `{"op":""}`, `{"op":"frobnicate","budget":-7}`,
		`{"Op":"promote","LABEL":"title","k":1}`, `{"op":"promote","op":"demote"}`,
		`{"mutations":[{"op":"add_edge"}],"mutations":[]}`, `{"from":null,"op":"add_edge"}`,
		`{"op":"set_requirements","reqs":{"name":2,"item":1}}`, `{"op":"add_edge","from":1e2,"to":-0}`,
		`{"op":"add_edge","from":01,"to":2}`, `{"op":"add_edge","from":2147483648,"to":1}`,
		`{"op":"add_edge","from":-2147483648,"to":1.0}`, `{"k":123456789012345678,"budget":1234567890123456789}`,
		`{"op":"promote","label":"title","k":1} {"op":"promote"}`, `{"op":"compact"}]`, `{"op":"compact"} `,
		`{"op":"add_edge","from":1,"to":2,}`, `{"nonsense":true}`, `{"mutations":[{"mutations":[]}]}`,
		`{"label":"a\tb"}`, "{\"label\":\"a\tb\"}", `{"label":"\u00"}`, `[]`, ``, `{"op":true}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := oracleMutateBody(b)
		// The handler hands the scanner a recycled slice; nothing of what it
		// held may show through.
		dirty := []dkindex.Mutation{{Op: "stale", From: 9, Doc: []byte("old"), Label: "x", K: 3}, {SizeBudget: 4}}
		if got, ok := scanMutateBody(b, dirty); ok {
			if wantErr != nil {
				t.Fatalf("scanner read %q, encoding/json rejects it: %v", b, wantErr)
			}
			if !sameMutateBody(got, want) {
				t.Fatalf("scanner read %q as %+v, encoding/json as %+v", b, got, want)
			}
		}
		got, err := decodeMutateBody(b, nil)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeMutateBody(%q) error %v, encoding/json %v", b, err, wantErr)
		}
		if err == nil && !sameMutateBody(got, want) {
			t.Fatalf("decodeMutateBody(%q) = %+v, encoding/json %+v", b, got, want)
		}
	})
}

// TestScannerReadsWhatClientsSend pins which bodies take the scanner: the
// shapes the documentation and the benchmark send, documents with escapes
// included. A change that sends them to encoding/json allocates its
// reflection again and fails here by body.
func TestScannerReadsWhatClientsSend(t *testing.T) {
	for _, body := range []string{
		`{"mutations":[{"op":"add_edge","from":1,"to":2},{"op":"remove_edge","from":3,"to":4}]}`,
		`{"mutations":[{"op":"add_document","doc":"\u003cperson id=\"p1\"\u003e\u003cname/\u003e\u003c/person\u003e"}]}`,
		`{"op":"promote","label":"title","k":2}`,
		`{"op":"compact"}`,
	} {
		if _, ok := scanMutateBody([]byte(body), nil); !ok {
			t.Errorf("%s went to encoding/json", body)
		}
	}
}

// mutateAck is the JSON shape one mutation acknowledgement had as a struct;
// appendAck must write what json.Encoder writes for it.
type mutateAck struct {
	Seq          uint64         `json:"seq"`
	Watermark    uint64         `json:"watermark"`
	Generation   uint64         `json:"generation,omitempty"`
	Error        string         `json:"error,omitempty"`
	Code         string         `json:"code,omitempty"`
	Nodes        int            `json:"nodes,omitempty"`
	Requirements map[string]int `json:"requirements,omitempty"`
}

func oracleAck(a dkindex.Ack) mutateAck {
	oa := mutateAck{Seq: a.Seq, Watermark: a.Watermark, Generation: a.Generation}
	if a.Err != nil {
		_, code := ackFailure(a.Err)
		oa.Error, oa.Code, oa.Generation = a.Err.Error(), code, 0
	}
	if a.Mapping != nil {
		oa.Nodes = len(a.Mapping)
	}
	if a.Mined != nil {
		oa.Requirements = a.Mined
	}
	return oa
}

// TestAckEncodingMatchesEncodingJSON holds the append-encoded acks to the
// structs and map the endpoint used to hand json.Encoder: the single form,
// the batch envelope, and the status a member the log could not make durable
// turns the batch into.
func TestAckEncodingMatchesEncodingJSON(t *testing.T) {
	acks := []dkindex.Ack{
		{Seq: 1, Watermark: 1, Generation: 7},
		{Seq: 2, Watermark: 3},
		{Seq: 3, Watermark: 3, Err: errors.New(`dkindex: unknown label "<b>&\u2028"`)},
		{Seq: 4, Watermark: 9, Generation: 8, Mapping: make([]dkindex.NodeID, 12)},
		{Seq: 5, Watermark: 9, Generation: 8, Mapping: []dkindex.NodeID{}},
		{Seq: 6, Watermark: 9, Generation: 8, Mined: map[string]int{"zeta": 3, "alpha": 1, "<m>": 0}},
		{Seq: 7, Watermark: 9, Generation: 8, Mined: map[string]int{}},
		{Seq: 8, Watermark: 1 << 63, Generation: 2, Err: fmt.Errorf("%w: disk full", dkindex.ErrNotDurable)},
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := range acks {
		want := bytes.TrimSuffix(encode(oracleAck(acks[i])), []byte("\n"))
		if got := appendAck(nil, &acks[i]); !bytes.Equal(got, want) {
			t.Errorf("ack %d:\n got %s\nwant %s", i, got, want)
		}
	}
	for n := 1; n <= len(acks); n++ {
		batch := acks[:n]
		out := make([]mutateAck, n)
		var watermark, generation uint64
		for i, a := range batch {
			out[i] = oracleAck(a)
			watermark, generation = max(watermark, a.Watermark), max(generation, a.Generation)
		}
		want := bytes.TrimSuffix(encode(map[string]any{"watermark": watermark, "generation": generation, "acks": out}), []byte("\n"))
		got, status := appendAckBatch(nil, http.StatusOK, batch)
		if !bytes.Equal(got, want) {
			t.Errorf("batch of %d:\n got %s\nwant %s", n, got, want)
		}
		if wantStatus := map[bool]int{false: 200, true: 500}[n == len(acks)]; status != wantStatus {
			t.Errorf("batch of %d answers %d, want %d", n, status, wantStatus)
		}
	}
}
