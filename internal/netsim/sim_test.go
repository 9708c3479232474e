package netsim

import (
	"math/rand"
	"testing"
)

func TestEventsRunInTimestampOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	if n := s.Run(0); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now = %d, want 30", s.Now())
	}
}

func TestTiesBreakFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSimulator()
	var hits []Time
	s.Schedule(10, func() {
		hits = append(hits, s.Now())
		s.Schedule(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run(0)
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v, want [10 15]", hits)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := NewSimulator()
	s.Schedule(10, func() {
		s.Schedule(-100, func() {
			if s.Now() != 10 {
				t.Errorf("negative delay ran at %d, want 10", s.Now())
			}
		})
	})
	s.Run(0)
}

func TestRunMaxEvents(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i), func() {})
	}
	if n := s.Run(3); n != 3 {
		t.Errorf("Run(3) = %d", n)
	}
	if s.pending != 2 {
		t.Errorf("pending = %d, want 2", s.pending)
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := NewSimulator()
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// TestSameTickBatchingPreservesOrder targets the bucketed tick queue: events
// landing on one timestamp from interleaved schedules (the same-tick wave
// the batching coalesces), callbacks appending into their own executing
// tick, and buckets recycled through the freelist must all execute in
// exactly the (timestamp, schedule-order) sequence of a per-event queue.
func TestSameTickBatchingPreservesOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	mark := func(v int) func() { return func() { order = append(order, v) } }
	// Interleave two ticks so same-tick events are never scheduled
	// contiguously.
	s.Schedule(10, mark(1))
	s.Schedule(20, mark(4))
	s.Schedule(10, mark(2))
	s.Schedule(20, mark(5))
	s.Schedule(10, func() {
		order = append(order, 3)
		// Append into the executing tick (runs this tick, after the wave)
		// and into the later, already-populated tick.
		s.Schedule(0, mark(100))
		s.Schedule(10, mark(6))
	})
	if s.pending != 5 {
		t.Fatalf("pending = %d, want 5", s.pending)
	}
	s.Run(0)
	want := []int{1, 2, 3, 100, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// A second wave after everything drained reuses retired buckets; the
	// contract must not change.
	order = nil
	for i := 0; i < 6; i++ {
		i := i
		s.Schedule(Time(5+i%2), func() { order = append(order, i) })
	}
	s.Run(0)
	// Tick now+5 gets 0,2,4; tick now+6 gets 1,3,5.
	want = []int{0, 2, 4, 1, 3, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("after reuse: order = %v, want %v", order, want)
		}
	}
	if s.pending != 0 {
		t.Fatalf("pending = %d after drain", s.pending)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		s := NewSimulator()
		rng := rand.New(rand.NewSource(99))
		var stamps []Time
		var tick func()
		tick = func() {
			stamps = append(stamps, s.Now())
			if len(stamps) < 50 {
				s.Schedule(Time(1+rng.Intn(10)), tick)
			}
		}
		s.Schedule(0, tick)
		s.Run(0)
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
