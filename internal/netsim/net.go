package netsim

import "math/rand"

// UniformLatency draws each message's delivery delay uniformly from
// [Min, Max]; Max ≤ Min delivers every message after Min.
type UniformLatency struct {
	Min, Max Time
}

// draw returns one delay from rng.
func (u UniformLatency) draw(rng *rand.Rand) Time {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + Time(rng.Int63n(int64(u.Max-u.Min)+1))
}

// Stats counts network activity.
type Stats struct {
	Sent      int // Send calls
	Delivered int // messages that reached their handler
	Dropped   int // lost to the drop rate
	NoRoute   int // sent with no handler installed
}

// Add folds other into s, as if both networks' activity had been counted on
// one. Used when merging the results of sharded simulation runs.
func (s *Stats) Add(other Stats) {
	s.Sent += other.Sent
	s.Delivered += other.Delivered
	s.Dropped += other.Dropped
	s.NoRoute += other.NoRoute
}

// Network delivers messages over a Simulator with uniform latency and
// random loss. Every message reaches the simulator's one handler, so a
// payload carries whatever the handler needs to route it (a marketplace
// step message is its session). Like the Simulator it is single-threaded.
type Network struct {
	sim      *Simulator
	latency  UniformLatency
	dropRate float64
	stats    Stats
}

// NewNetwork returns a network on sim whose messages take latency to arrive.
func NewNetwork(sim *Simulator, latency UniformLatency) *Network {
	return &Network{sim: sim, latency: latency}
}

// SetDropRate makes every message independently lost with probability r
// (clamped into [0, 1]).
func (n *Network) SetDropRate(r float64) {
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	n.dropRate = r
}

// Stats returns a copy of the activity counters.
func (n *Network) Stats() Stats { return n.stats }

// Send queues msg for delivery after a latency draw, with the loss and
// latency draws taken from rng: the sending flow's own stream (one per
// marketplace session in market.Engine), so each flow's randomness stays
// self-contained however the flows interleave on the virtual clock.
// Undeliverable messages (no handler, random loss) are counted and silently
// discarded — like the real network the model stands in for, the sender
// learns nothing.
func (n *Network) Send(msg Message, rng *rand.Rand) {
	n.stats.Sent++
	if n.sim.handler == nil {
		n.stats.NoRoute++
		return
	}
	if n.dropRate > 0 && rng.Float64() < n.dropRate {
		n.stats.Dropped++
		return
	}
	n.sim.schedule(n.latency.draw(rng), event{msg: msg, net: n})
}
