package obs

import (
	"sync"
	"testing"
)

func TestStreamRingBounded(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 5; i++ {
		s.Publish(Event{Type: EventPromote, K: i})
	}
	if n := len(s.Recent(0)); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	got := s.Recent(0)
	if len(got) != 3 || got[0].K != 2 || got[2].K != 4 {
		t.Fatalf("Recent = %+v, want K 2..4", got)
	}
	if got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("Seq = %d..%d, want 3..5", got[0].Seq, got[2].Seq)
	}
	if last := s.LastSeq(); last != 5 {
		t.Fatalf("LastSeq = %d, want 5", last)
	}
	if two := s.Recent(2); len(two) != 2 || two[0].K != 3 {
		t.Fatalf("Recent(2) = %+v", two)
	}
}

func TestStreamSince(t *testing.T) {
	s := NewStream(10)
	for i := 0; i < 6; i++ {
		s.Publish(Event{Type: EventEdgeAdd})
	}
	got := s.Since(4, 0)
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("Since(4) = %+v", got)
	}
	if capped := s.Since(0, 3); len(capped) != 3 || capped[0].Seq != 1 {
		t.Fatalf("Since(0, 3) = %+v", capped)
	}
	if none := s.Since(6, 0); len(none) != 0 {
		t.Fatalf("Since(6) = %+v, want empty", none)
	}
}

// TestStreamConcurrent hammers Publish/Recent/Since together; run with
// -race.
func TestStreamConcurrent(t *testing.T) {
	s := NewStream(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s.Publish(Event{Type: EventExtentSplit, Created: 1})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Recent(8)
				s.Since(uint64(i), 4)
			}
		}()
	}
	wg.Wait()
	if s.LastSeq() != 4*300 {
		t.Fatalf("LastSeq = %d, want %d", s.LastSeq(), 4*300)
	}
	got := s.Recent(0)
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("retained seqs not contiguous: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
}
