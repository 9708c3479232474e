package netsim

import (
	"math/rand"
	"testing"
)

// TestSetHandlerAndAccessors pins the shared-dispatch path the engine
// uses: one SetHandler call serves every destination, and the Executed
// accessor exposes the event-load number the scale benchmarks normalise by.
func TestSetHandlerAndAccessors(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, ConstLatency(0))
	rng := rand.New(rand.NewSource(1))
	got := map[NodeID]int{}
	net.SetHandler(func(from NodeID, msg Message) { got[msg.(NodeID)]++ })
	net.Send(1, 2, NodeID(2), rng)
	net.Send(1, 7, NodeID(7), rng)
	if n := sim.Run(100); n != 2 {
		t.Fatalf("ran %d events, want 2", n)
	}
	if got[2] != 1 || got[7] != 1 {
		t.Fatalf("deliveries by destination %v, want one each to 2 and 7", got)
	}
	if sim.Executed() != 2 {
		t.Fatalf("Executed() = %d, want 2", sim.Executed())
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
