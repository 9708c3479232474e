package netsim

import (
	"math/rand"
	"testing"
)

// funcSim returns a simulator whose handler runs each message as a func(),
// so a test queues its callbacks as timers.
func funcSim() *Simulator {
	s := NewSimulator()
	s.SetHandler(func(msg Message) { msg.(func())() })
	return s
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	s := funcSim()
	var order []int
	s.Timer(30, func() { order = append(order, 3) })
	s.Timer(10, func() { order = append(order, 1) })
	s.Timer(20, func() { order = append(order, 2) })
	s.Run()
	if s.executed != 3 {
		t.Fatalf("ran %d events, want 3", s.executed)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.now != 30 {
		t.Errorf("now = %d, want 30", s.now)
	}
}

func TestTiesBreakFIFO(t *testing.T) {
	s := funcSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Timer(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := funcSim()
	var hits []Time
	s.Timer(10, func() {
		hits = append(hits, s.now)
		s.Timer(5, func() { hits = append(hits, s.now) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v, want [10 15]", hits)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := funcSim()
	s.Timer(10, func() {
		s.Timer(-100, func() {
			if s.now != 10 {
				t.Errorf("negative delay ran at %d, want 10", s.now)
			}
		})
	})
	s.Run()
}

func TestStepOnEmpty(t *testing.T) {
	s := funcSim()
	if s.step() {
		t.Error("step on empty queue returned true")
	}
}

// TestSameTickBatchingPreservesOrder targets the bucketed tick queue: events
// landing on one timestamp from interleaved schedules (the same-tick wave
// the batching coalesces), callbacks appending into their own executing
// tick, and buckets recycled through the freelist must all execute in
// exactly the (timestamp, schedule-order) sequence of a per-event queue.
func TestSameTickBatchingPreservesOrder(t *testing.T) {
	s := funcSim()
	var order []int
	mark := func(v int) func() { return func() { order = append(order, v) } }
	// Interleave two ticks so same-tick events are never scheduled
	// contiguously.
	s.Timer(10, mark(1))
	s.Timer(20, mark(4))
	s.Timer(10, mark(2))
	s.Timer(20, mark(5))
	s.Timer(10, func() {
		order = append(order, 3)
		// Append into the executing tick (runs this tick, after the wave)
		// and into the later, already-populated tick.
		s.Timer(0, mark(100))
		s.Timer(10, mark(6))
	})
	if s.pending != 5 {
		t.Fatalf("pending = %d, want 5", s.pending)
	}
	s.Run()
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
		s.Timer(Time(5+i%2), func() { order = append(order, i) })
	}
	s.Run()
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
		s := funcSim()
		rng := rand.New(rand.NewSource(99))
		var stamps []Time
		var tick func()
		tick = func() {
			stamps = append(stamps, s.now)
			if len(stamps) < 50 {
				s.Timer(Time(1+rng.Intn(10)), tick)
			}
		}
		s.Timer(0, tick)
		s.Run()
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
