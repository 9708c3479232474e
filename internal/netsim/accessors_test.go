package netsim

import (
	"math/rand"
	"testing"
)

// TestSetHandlerAndAccessors pins the shared-dispatch path the engine
// uses: one SetHandler call serves every timer and every delivery, and the
// Executed accessor, the event-load number the scale benchmarks normalise
// by, counts both kinds.
func TestSetHandlerAndAccessors(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, UniformLatency{})
	rng := rand.New(rand.NewSource(1))
	got := map[Message]int{}
	sim.SetHandler(func(msg Message) { got[msg]++ })
	net.Send(2, rng)
	net.Send(7, rng)
	sim.Timer(0, "timeout")
	sim.Run()
	if got[2] != 1 || got[7] != 1 || got["timeout"] != 1 {
		t.Fatalf("handled %v, want one each of 2, 7 and the timer", got)
	}
	if sim.Executed() != 3 {
		t.Fatalf("Executed() = %d, want 3", sim.Executed())
	}
	st := net.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.NoRoute != 0 {
		t.Fatalf("stats = %+v, want 2 sent, 2 delivered, 0 noroute", st)
	}
}

// TestStatsAdd pins the fold used when merging sharded simulation runs.
func TestStatsAdd(t *testing.T) {
	a := Stats{Sent: 1, Delivered: 2, Dropped: 3, NoRoute: 5}
	a.Add(Stats{Sent: 10, Delivered: 20, Dropped: 30, NoRoute: 50})
	want := Stats{Sent: 11, Delivered: 22, Dropped: 33, NoRoute: 55}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
}
