package netsim

import (
	"math/rand"
	"testing"
)

// TestDefaultHandlerAndAccessors pins the shared-dispatch path the engine
// uses at scale: one SetDefaultHandler call serves every unregistered
// destination (explicit Register entries still win), and the Executed
// accessor exposes the event-load number the scale benchmarks normalise by.
func TestDefaultHandlerAndAccessors(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, ConstLatency(0))
	rng := rand.New(rand.NewSource(1))
	var defGot, regGot int
	net.SetDefaultHandler(func(from NodeID, msg Message) { defGot++ })
	if err := net.Register(7, func(from NodeID, msg Message) { regGot++ }); err != nil {
		t.Fatal(err)
	}
	net.Send(1, 2, "ping", rng) // no Register entry → default handler
	net.Send(1, 7, "ping", rng) // explicit entry wins over the default
	if got := sim.Run(100); got != 2 {
		t.Fatalf("ran %d events, want 2", got)
	}
	if defGot != 1 || regGot != 1 {
		t.Fatalf("default handler got %d, registered got %d, want 1 and 1", defGot, regGot)
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
