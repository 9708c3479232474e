package netsim

import (
	"math/rand"
	"testing"
)

func pingPongNetwork(t *testing.T, latency LatencyModel) (*Simulator, *Network, *rand.Rand, *[]string) {
	t.Helper()
	sim := NewSimulator()
	net := NewNetwork(sim, latency)
	rng := rand.New(rand.NewSource(7))
	var log []string
	net.SetHandler(func(from NodeID, msg Message) {
		// Node 2 answers what node 1 sends it.
		switch from {
		case 1:
			log = append(log, "node2:"+msg.(string))
			net.Send(2, 1, "pong", rng)
		case 2:
			log = append(log, "node1:"+msg.(string))
		}
	})
	return sim, net, rng, &log
}

func TestSendDeliver(t *testing.T) {
	sim, net, rng, log := pingPongNetwork(t, ConstLatency(5))
	net.Send(1, 2, "ping", rng)
	sim.Run(0)
	if len(*log) != 2 || (*log)[0] != "node2:ping" || (*log)[1] != "node1:pong" {
		t.Errorf("log = %v", *log)
	}
	if sim.Now() != 10 {
		t.Errorf("round trip took %d ticks, want 10", sim.Now())
	}
	st := net.Stats()
	if st.Sent != 2 || st.Delivered != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestUnknownDestination: a network without a handler routes nothing, and
// counts each send as NoRoute.
func TestUnknownDestination(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, ConstLatency(1))
	net.Send(1, 99, "void", rand.New(rand.NewSource(7)))
	sim.Run(0)
	if st := net.Stats(); st.Sent != 1 || st.NoRoute != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDropRate(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, ConstLatency(0))
	rng := rand.New(rand.NewSource(42))
	received := 0
	net.SetHandler(func(NodeID, Message) { received++ })
	net.SetDropRate(0.3)
	const total = 10000
	for i := 0; i < total; i++ {
		net.Send(2, 1, i, rng)
	}
	sim.Run(0)
	st := net.Stats()
	if st.Dropped+st.Delivered != total {
		t.Fatalf("dropped %d + delivered %d != %d", st.Dropped, st.Delivered, total)
	}
	rate := float64(st.Dropped) / total
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("empirical drop rate %g, want ≈ 0.3", rate)
	}
	// Clamping.
	net.SetDropRate(-1)
	if net.dropRate != 0 {
		t.Error("negative rate not clamped")
	}
	net.SetDropRate(2)
	if net.dropRate != 1 {
		t.Error("rate > 1 not clamped")
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := UniformLatency{Min: 3, Max: 9}
	for i := 0; i < 1000; i++ {
		l := u.Latency(0, 1, rng)
		if l < 3 || l > 9 {
			t.Fatalf("latency %d outside [3, 9]", l)
		}
	}
	// Degenerate range.
	d := UniformLatency{Min: 4, Max: 4}
	if l := d.Latency(0, 1, rng); l != 4 {
		t.Errorf("degenerate latency = %d, want 4", l)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() []int {
		sim := NewSimulator()
		net := NewNetwork(sim, UniformLatency{Min: 1, Max: 20})
		rng := rand.New(rand.NewSource(1234))
		net.SetDropRate(0.2)
		var got []int
		net.SetHandler(func(_ NodeID, msg Message) { got = append(got, msg.(int)) })
		for i := 0; i < 200; i++ {
			net.Send(NodeID(i%5), NodeID((i+1)%5), i, rng)
		}
		sim.Run(0)
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}
