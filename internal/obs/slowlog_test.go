package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilSlowLog(t *testing.T) {
	var l *SlowLog
	l.Add(SlowEntry{Duration: time.Second})
	if l.Floor() != 0 || l.Offered() != 0 || l.Snapshot() != nil {
		t.Fatal("nil slow log not inert")
	}
}

func TestSlowLogTopN(t *testing.T) {
	l := NewSlowLog(4)
	// Offer durations 1..10ms in a shuffled order; the log must keep 7..10.
	for _, ms := range []int{3, 9, 1, 7, 5, 10, 2, 8, 4, 6} {
		l.Add(SlowEntry{Query: "q", Duration: time.Duration(ms) * time.Millisecond})
	}
	if l.Offered() != 10 {
		t.Fatalf("offered = %d, want 10", l.Offered())
	}
	if got := l.Floor(); got != 7*time.Millisecond {
		t.Fatalf("floor = %v, want 7ms", got)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, want := range []time.Duration{10, 9, 8, 7} {
		if snap[i].Duration != want*time.Millisecond {
			t.Fatalf("snap[%d] = %v, want %vms (slowest first)", i, snap[i].Duration, want)
		}
	}
	// A request exactly at the floor must be rejected (<=), keeping the set
	// stable under a stream of floor-speed requests.
	l.Add(SlowEntry{Duration: 7 * time.Millisecond})
	if got := l.Snapshot(); len(got) != 4 || got[3].Duration != 7*time.Millisecond {
		t.Fatalf("floor-speed request changed the log: %+v", got)
	}
}

func TestSlowLogPartiallyFull(t *testing.T) {
	l := NewSlowLog(8)
	l.Add(SlowEntry{Duration: 5 * time.Millisecond})
	l.Add(SlowEntry{Duration: 2 * time.Millisecond})
	if l.Floor() != 0 {
		t.Fatalf("floor of non-full log = %v, want 0", l.Floor())
	}
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].Duration != 5*time.Millisecond {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestSlowLogConcurrent hammers Add/Snapshot/Floor from many goroutines; run
// with -race. The retained set afterwards must be exactly the top-cap
// durations offered.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				l.Add(SlowEntry{Duration: time.Duration(w*250+i+1) * time.Microsecond})
				if i%50 == 0 {
					l.Snapshot()
					l.Floor()
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Offered() != 8*250 {
		t.Fatalf("offered = %d, want %d", l.Offered(), 8*250)
	}
	snap := l.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot len = %d, want 16", len(snap))
	}
	// Durations 1..2000µs were offered exactly once each; top 16 survive.
	for i, e := range snap {
		if want := time.Duration(2000-i) * time.Microsecond; e.Duration != want {
			t.Fatalf("snap[%d] = %v, want %v", i, e.Duration, want)
		}
	}
}

// TestSlowLogRejectsWithoutLock pins the read path's last lock: once the log
// is full, a request no slower than the floor is counted and turned away
// while another goroutine holds the heap's mutex. Eight goroutines offer
// such requests (and a few slower ones that must get in) at once; Offered,
// Floor and Snapshot stay exact.
func TestSlowLogRejectsWithoutLock(t *testing.T) {
	const capacity, offerers, perOfferer = 4, 8, 500
	l := NewSlowLog(capacity)
	for ms := 1; ms <= capacity; ms++ {
		l.Add(SlowEntry{Duration: time.Duration(ms) * time.Millisecond})
	}
	if l.Floor() != time.Millisecond {
		t.Fatalf("floor = %v, want 1ms", l.Floor())
	}

	l.mu.Lock()
	rejected := make(chan struct{})
	go func() {
		defer close(rejected)
		var wg sync.WaitGroup
		for w := 0; w < offerers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perOfferer; i++ {
					l.Add(SlowEntry{Duration: time.Duration(i%1000+1) * time.Microsecond}) // <= 1ms
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-rejected:
	case <-time.After(30 * time.Second):
		t.Fatal("rejecting a fast request waited for the slow log's mutex")
	}
	if got, want := l.Offered(), uint64(capacity+offerers*perOfferer); got != want {
		t.Errorf("offered = %d with the mutex held, want %d", got, want)
	}
	if l.Floor() != time.Millisecond {
		t.Errorf("floor moved to %v under rejected offers", l.Floor())
	}
	l.mu.Unlock()

	// Slower requests still get in, from all goroutines at once, and raise
	// the floor.
	var wg sync.WaitGroup
	for w := 0; w < offerers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l.Add(SlowEntry{Duration: time.Duration(10+w) * time.Millisecond})
			l.Add(SlowEntry{Duration: time.Microsecond})
		}(w)
	}
	wg.Wait()
	if got, want := l.Offered(), uint64(capacity+offerers*perOfferer+2*offerers); got != want {
		t.Errorf("offered = %d, want %d", got, want)
	}
	if got := l.Floor(); got != 14*time.Millisecond {
		t.Errorf("floor = %v, want 14ms", got)
	}
	snap := l.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("snapshot len = %d, want %d", len(snap), capacity)
	}
	for i, e := range snap {
		if want := time.Duration(17-i) * time.Millisecond; e.Duration != want {
			t.Errorf("snap[%d] = %v, want %v", i, e.Duration, want)
		}
	}
}
