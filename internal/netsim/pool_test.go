package netsim

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// drainCrossRunPools empties the package-level sync.Pools so each test
// observes only its own handoffs.
func drainCrossRunPools() {
	for slotFreePool.Get() != nil {
	}
	for deliveryFreePool.Get() != nil {
	}
}

// TestSimulatorFreelistCrossesRuns pins the cross-run handoff: a simulator
// that grew and recycled slot arrays Releases them, and the next simulator
// adopts that freelist instead of starting cold — the many-short-simulations
// shape the eval trial runner produces. GC is disabled around the test
// because sync.Pool may legally drop entries at a collection.
func TestSimulatorFreelistCrossesRuns(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainCrossRunPools()

	s1 := NewSimulator()
	if len(s1.free) != 0 {
		t.Fatalf("fresh simulator adopted %d arrays from a drained pool", len(s1.free))
	}
	// A same-tick wave larger than the inline capacity forces heap-backed
	// slot arrays, which retireSlot recycles onto s1.free after the run.
	for w := 0; w < 3; w++ {
		for i := 0; i < 4*slotInline; i++ {
			s1.Schedule(Time(w), func() {})
		}
		s1.Run(4 * slotInline)
	}
	grown := len(s1.free)
	if grown == 0 {
		t.Fatal("run recycled no slot arrays; the test workload no longer exercises the freelist")
	}
	s1.Release()
	if s1.free != nil {
		t.Fatal("Release left the freelist attached")
	}

	s2 := NewSimulator()
	if len(s2.free) != grown {
		t.Fatalf("second simulator adopted %d arrays, want the released %d", len(s2.free), grown)
	}
	// Adopted arrays must be clean and usable: run a wave through them.
	ran := 0
	for i := 0; i < 4*slotInline; i++ {
		s2.Schedule(0, func() { ran++ })
	}
	if got := s2.Run(4 * slotInline); got != 4*slotInline || ran != 4*slotInline {
		t.Fatalf("adopted freelist broke execution: ran %d/%d", ran, got)
	}
}

// TestNetworkDeliveryPoolCrossesRuns is the delivery-struct counterpart: a
// network that pooled fired deliveries hands them to the next network.
func TestNetworkDeliveryPoolCrossesRuns(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainCrossRunPools()

	rng := rand.New(rand.NewSource(3))
	sim1 := NewSimulator()
	net1 := NewNetwork(sim1, ConstLatency(1))
	net1.SetHandler(func(NodeID, Message) {})
	for i := 0; i < 8; i++ {
		net1.Send(0, 0, i, rng)
	}
	sim1.Run(8)
	pooled := len(net1.pool)
	if pooled == 0 {
		t.Fatal("no deliveries pooled; the workload no longer exercises the delivery pool")
	}
	net1.Release()
	sim1.Release()

	sim2 := NewSimulator()
	net2 := NewNetwork(sim2, ConstLatency(1))
	if len(net2.pool) != pooled {
		t.Fatalf("second network adopted %d deliveries, want the released %d", len(net2.pool), pooled)
	}
	got := 0
	net2.SetHandler(func(_ NodeID, msg Message) { got++ })
	for i := 0; i < 8; i++ {
		net2.Send(0, 0, i, rng)
	}
	sim2.Run(8)
	if got != 8 {
		t.Fatalf("adopted delivery pool broke delivery: %d/8 messages arrived", got)
	}
}
