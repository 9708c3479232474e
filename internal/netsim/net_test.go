package netsim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSendDeliver: a ping answered by a pong, with timers queued beside
// them, one on the ping's own tick. Timers reach the same handler in
// (timestamp, queue-order) order with the deliveries and count in Executed,
// never in Delivered.
func TestSendDeliver(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, UniformLatency{Min: 5, Max: 5})
	rng := rand.New(rand.NewSource(7))
	var log []string
	sim.SetHandler(func(msg Message) {
		switch msg {
		case "ping": // node 2 answers node 1
			log = append(log, "node2:ping")
			net.Send("pong", rng)
		case "pong":
			log = append(log, "node1:pong")
		default:
			log = append(log, "timer:"+msg.(string))
		}
	})
	net.Send("ping", rng)
	sim.Timer(5, "t0")
	sim.Timer(7, "t1")
	sim.Run()
	if want := []string{"node2:ping", "timer:t0", "timer:t1", "node1:pong"}; !slices.Equal(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
	if sim.now != 10 {
		t.Errorf("round trip took %d ticks, want 10", sim.now)
	}
	if st := net.Stats(); st.Sent != 2 || st.Delivered != 2 {
		t.Errorf("stats = %+v, want 2 sent and 2 delivered", st)
	}
	if sim.Executed() != 4 {
		t.Errorf("Executed() = %d, want 2 deliveries + 2 timers", sim.Executed())
	}
}

// TestUnknownDestination: a network whose simulator has no handler routes
// nothing, and counts each send as NoRoute.
func TestUnknownDestination(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, UniformLatency{Min: 1, Max: 1})
	net.Send("void", rand.New(rand.NewSource(7)))
	sim.Run()
	if st := net.Stats(); st.Sent != 1 || st.NoRoute != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDropRate: loss applies to sends only. Timers queued among the sends
// all fire, raise Executed, and never count as delivered.
func TestDropRate(t *testing.T) {
	sim := NewSimulator()
	net := NewNetwork(sim, UniformLatency{})
	rng := rand.New(rand.NewSource(42))
	received, fired := 0, 0
	sim.SetHandler(func(msg Message) {
		if _, ok := msg.(string); ok {
			fired++
		} else {
			received++
		}
	})
	net.SetDropRate(0.3)
	const total, timers = 10000, 100
	for i := 0; i < total; i++ {
		net.Send(i, rng)
		if i%(total/timers) == 0 {
			sim.Timer(Time(i%3), "timeout")
		}
	}
	sim.Run()
	st := net.Stats()
	if st.Dropped+st.Delivered != total {
		t.Fatalf("dropped %d + delivered %d != %d", st.Dropped, st.Delivered, total)
	}
	if received != st.Delivered || fired != timers {
		t.Fatalf("handler saw %d messages and %d timers, want %d and %d", received, fired, st.Delivered, timers)
	}
	if want := int64(st.Delivered + timers); sim.Executed() != want {
		t.Fatalf("Executed() = %d, want %d deliveries + %d timers", sim.Executed(), st.Delivered, timers)
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
		l := u.draw(rng)
		if l < 3 || l > 9 {
			t.Fatalf("latency %d outside [3, 9]", l)
		}
	}
	// Degenerate range.
	d := UniformLatency{Min: 4, Max: 4}
	if l := d.draw(rng); l != 4 {
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
		sim.SetHandler(func(msg Message) { got = append(got, msg.(int)) })
		for i := 0; i < 200; i++ {
			net.Send(i, rng)
		}
		sim.Run()
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
