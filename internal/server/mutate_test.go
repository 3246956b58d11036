package server

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestV1MutateSingle(t *testing.T) {
	ts, idx := newTestServer(t)
	code, out := post(t, ts.URL+"/v1/mutate", "application/json",
		`{"op":"promote","label":"title","k":2}`)
	if code != 200 {
		t.Fatalf("mutate = %d %v", code, out)
	}
	if out["seq"].(float64) < 1 || out["watermark"].(float64) < out["seq"].(float64) {
		t.Errorf("ack seq/watermark = %v/%v", out["seq"], out["watermark"])
	}
	if uint64(out["generation"].(float64)) != idx.Generation() {
		t.Errorf("ack generation %v != index generation %d", out["generation"], idx.Generation())
	}

	// A grafted document reports its node count in the ack.
	code, out = post(t, ts.URL+"/v1/mutate", "application/json",
		`{"op":"add_document","doc":"<extras><movie id=\"m7\"><title/></movie></extras>"}`)
	if code != 200 || out["nodes"].(float64) < 3 {
		t.Fatalf("document mutate = %d %v", code, out)
	}
}

// TestV1MutateCompact drives subtree deletion over the wire: detach, then
// compact like any other op. The ack's nodes is the length of the renumbering
// (the node count before), and one compaction is one generation.
func TestV1MutateCompact(t *testing.T) {
	ts, idx := newTestServer(t)
	g := idx.Graph()
	movieDB := g.Children(g.Root())[0]
	code, out := post(t, ts.URL+"/v1/mutate", "application/json",
		fmt.Sprintf(`{"op":"remove_edge","from":%d,"to":%d}`, movieDB, g.Children(movieDB)[0]))
	if code != 200 {
		t.Fatalf("remove_edge = %d %v", code, out)
	}
	nodes, gen := idx.Stats().DataNodes, idx.Generation()
	code, out = post(t, ts.URL+"/v1/mutate", "application/json", `{"op":"compact"}`)
	if code != 200 || int(out["nodes"].(float64)) != nodes || uint64(out["generation"].(float64)) != gen+1 {
		t.Fatalf("compact = %d %v, want nodes=%d generation=%d", code, out, nodes, gen+1)
	}
	// director d1 and its name are gone; its movie stays, the actor refers to it.
	if got := idx.Stats().DataNodes; got != nodes-2 || idx.Generation() != gen+1 {
		t.Errorf("after compact: %d data nodes at generation %d, want %d at %d", got, idx.Generation(), nodes-2, gen+1)
	}
}

func TestV1MutateErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"op":"frobnicate"}`, 400, "bad_request"},
		{`{"op":"promote","k":1}`, 400, "bad_request"},                // missing label
		{`{"op":"promote","label":"nope","k":1}`, 400, "bad_request"}, // unknown label
		{`{"op":"add_edge","from":0,"to":999999}`, 400, "bad_request"},
		{`{}`, 400, "bad_request"}, // neither op nor mutations
		{`{"op":"promote","label":"title","k":1,"mutations":[{"op":"promote","label":"title","k":1}]}`,
			400, "bad_request"}, // both forms at once
		{`{"mutations":[]}`, 400, "bad_request"},
		{`{"nonsense":true}`, 400, "bad_request"}, // unknown field
	} {
		status, out := post(t, ts.URL+"/v1/mutate", "application/json", tc.body)
		if status != tc.status || out["code"] != tc.code {
			t.Errorf("%s = %d %v, want %d code=%s", tc.body, status, out, tc.status, tc.code)
		}
	}
	status, out := post(t, ts.URL+"/v1/mutate?ack=never", "application/json", `{"op":"promote","label":"title","k":1}`)
	if status != 400 || out["code"] != "bad_request" {
		t.Errorf("bad ack mode = %d %v", status, out)
	}
	var b strings.Builder
	b.WriteString(`{"mutations":[`)
	for i := 0; i <= maxBatchMutations; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"op":"promote","label":"title","k":1}`)
	}
	b.WriteString(`]}`)
	status, out = post(t, ts.URL+"/v1/mutate", "application/json", b.String())
	if status != 413 || out["code"] != "too_large" {
		t.Errorf("oversized batch = %d %v", status, out)
	}
}

// TestV1MutateBatchBoundary pins the batch-size contract: exactly
// maxBatchMutations members are accepted, one more is rejected with the
// structured too_large envelope naming the cap, and the empty batch names its
// own rule — clients can rely on the messages, not just the codes.
func TestV1MutateBatchBoundary(t *testing.T) {
	ts, _ := newTestServer(t)
	batch := func(n int) string {
		var b strings.Builder
		b.WriteString(`{"mutations":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"op":"promote","label":"title","k":1}`)
		}
		b.WriteString(`]}`)
		return b.String()
	}
	status, out := post(t, ts.URL+"/v1/mutate", "application/json", batch(maxBatchMutations))
	if status != 200 {
		t.Fatalf("batch of exactly %d = %d %v, want 200", maxBatchMutations, status, out)
	}
	if acks := out["acks"].([]any); len(acks) != maxBatchMutations {
		t.Fatalf("full batch returned %d acks, want %d", len(acks), maxBatchMutations)
	}
	status, out = post(t, ts.URL+"/v1/mutate", "application/json", batch(maxBatchMutations+1))
	if status != 413 || out["code"] != "too_large" {
		t.Fatalf("batch of %d = %d %v, want 413 too_large", maxBatchMutations+1, status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, fmt.Sprintf("at most %d mutations", maxBatchMutations)) {
		t.Errorf("too_large envelope does not name the cap: %v", out)
	}
	if _, ok := out["requestId"]; !ok {
		t.Errorf("too_large envelope missing requestId: %v", out)
	}
	status, out = post(t, ts.URL+"/v1/mutate", "application/json", `{"mutations":[]}`)
	if status != 400 || out["code"] != "bad_request" {
		t.Fatalf("empty batch = %d %v, want 400 bad_request", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "must not be empty") {
		t.Errorf("empty-batch envelope does not state the rule: %v", out)
	}
}

func TestV1MutateBatch(t *testing.T) {
	ts, idx := newTestServer(t)
	gen0 := idx.Generation()
	code, out := post(t, ts.URL+"/v1/mutate", "application/json", `{"mutations":[
		{"op":"add_edge","from":0,"to":5},
		{"op":"promote","label":"no-such-label","k":1},
		{"op":"promote","label":"name","k":1},
		{"op":"remove_edge","from":0,"to":5}
	]}`)
	if code != 200 {
		t.Fatalf("batch = %d %v", code, out)
	}
	acks := out["acks"].([]any)
	if len(acks) != 4 {
		t.Fatalf("batch returned %d acks, want 4", len(acks))
	}
	for i, a := range acks {
		m := a.(map[string]any)
		if i == 1 {
			if m["error"] == nil || m["code"] != "bad_request" {
				t.Errorf("ack 1 should be a structured error, got %v", m)
			}
			continue
		}
		if m["error"] != nil {
			t.Errorf("ack %d rejected: %v", i, m)
		}
		// One group commit: every applied member shares the generation.
		if uint64(m["generation"].(float64)) != gen0+1 {
			t.Errorf("ack %d generation %v, want %d", i, m["generation"], gen0+1)
		}
	}
	if wm := uint64(out["watermark"].(float64)); wm != idx.Watermark() {
		t.Errorf("envelope watermark %v != index watermark %d", wm, idx.Watermark())
	}
	if idx.Generation() != gen0+1 {
		t.Errorf("batch bumped generation %d times, want 1", idx.Generation()-gen0)
	}
}

func TestV1MutateAsyncAndWatermark(t *testing.T) {
	ts, idx := newTestServer(t)
	code, out := get(t, ts.URL+"/v1/watermark")
	if code != 200 {
		t.Fatalf("watermark = %d %v", code, out)
	}
	for _, k := range []string{"watermark", "lastSeq", "generation", "batching"} {
		if _, ok := out[k]; !ok {
			t.Errorf("watermark response missing %s: %v", k, out)
		}
	}
	if out["batching"] != false {
		t.Errorf("batching = %v, want false", out["batching"])
	}

	code, out = post(t, ts.URL+"/v1/mutate?ack=async", "application/json",
		`{"op":"promote","label":"title","k":2}`)
	if code != 202 {
		t.Fatalf("async mutate = %d %v", code, out)
	}
	seq := uint64(out["seq"].(float64))
	if seq == 0 {
		t.Fatal("async ack carries no sequence number")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, wm := get(t, ts.URL+"/v1/watermark")
		if uint64(wm["watermark"].(float64)) >= seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watermark never reached %d: %v", seq, wm)
		}
		time.Sleep(time.Millisecond)
	}
	if idx.Watermark() < seq {
		t.Errorf("index watermark %d below acked seq %d", idx.Watermark(), seq)
	}

	// An async batch answers 202 with per-member sequence numbers only;
	// /v1/watermark observably advances past the batch's last member.
	code, out = post(t, ts.URL+"/v1/mutate?ack=async", "application/json", `{"mutations":[
		{"op":"add_edge","from":0,"to":5},
		{"op":"promote","label":"name","k":1},
		{"op":"remove_edge","from":0,"to":5}
	]}`)
	if code != 202 {
		t.Fatalf("async batch = %d %v", code, out)
	}
	acks := out["acks"].([]any)
	if len(acks) != 3 {
		t.Fatalf("async batch returned %d acks, want 3", len(acks))
	}
	var last uint64
	for i, a := range acks {
		m := a.(map[string]any)
		if m["error"] != nil {
			t.Fatalf("async ack %d rejected: %v", i, m)
		}
		s := uint64(m["seq"].(float64))
		if s <= last {
			t.Fatalf("async batch seqs not increasing: %v then %v", last, s)
		}
		if g, ok := m["generation"]; ok && g.(float64) != 0 {
			t.Errorf("async ack %d carries a generation (%v); visibility is not promised yet", i, g)
		}
		last = s
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, wm := get(t, ts.URL+"/v1/watermark")
		if uint64(wm["watermark"].(float64)) >= last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watermark never reached async batch tail %d: %v", last, wm)
		}
		time.Sleep(time.Millisecond)
	}
}
