package netsim

import (
	"math/rand"
	"sync"
)

// NodeID addresses a simulated node.
type NodeID int

// Message is an opaque payload; nodes agree on concrete types out of band.
type Message any

// Handler consumes a delivered message.
type Handler func(from NodeID, msg Message)

// LatencyModel draws per-message delivery delays.
type LatencyModel interface {
	Latency(from, to NodeID, rng *rand.Rand) Time
}

// UniformLatency draws uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max Time
}

// Latency implements LatencyModel.
func (u UniformLatency) Latency(_, _ NodeID, rng *rand.Rand) Time {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + Time(rng.Int63n(int64(u.Max-u.Min)+1))
}

// ConstLatency delivers every message after a fixed delay.
type ConstLatency Time

// Latency implements LatencyModel.
func (c ConstLatency) Latency(_, _ NodeID, _ *rand.Rand) Time { return Time(c) }

// Stats counts network activity.
type Stats struct {
	Sent      int // Send calls
	Delivered int // messages that reached their handler
	Dropped   int // lost to the drop rate
	NoRoute   int // sent on a network with no handler
}

// Add folds other into s, as if both networks' activity had been counted on
// one. Used when merging the results of sharded simulation runs.
func (s *Stats) Add(other Stats) {
	s.Sent += other.Sent
	s.Delivered += other.Delivered
	s.Dropped += other.Dropped
	s.NoRoute += other.NoRoute
}

// delivery is a queued message in flight: the sender and payload of one
// Send, held as a typed struct instead of a closure so the per-message cost
// is a pooled struct fill rather than a heap allocation. Fired deliveries
// return to the owning Network's pool.
type delivery struct {
	net  *Network
	from NodeID
	msg  Message
}

// maxPooledDeliveries bounds the Network's delivery freelist; a burst larger
// than the bound is simply released to the garbage collector.
const maxPooledDeliveries = 1024

// deliveryFreePool recycles whole delivery freelists across network
// lifetimes, the delivery-struct counterpart of the simulator's
// slotFreePool: pooled entries hold only zeroed delivery structs (fire's
// contract), adopted by NewNetwork and returned by Release — one pool
// touch per run on each side, with the per-network slice remaining the
// lock-free fast path.
var deliveryFreePool sync.Pool

func (d *delivery) fire() {
	n := d.net
	n.stats.Delivered++
	from, msg := d.from, d.msg
	*d = delivery{}
	if len(n.pool) < maxPooledDeliveries {
		n.pool = append(n.pool, d)
	}
	n.handler(from, msg)
}

// Network delivers messages between nodes over a Simulator with
// configurable latency and random loss. Every node shares the network's one
// handler, so a payload carries whatever the handler needs to route it (a
// marketplace step message is its session). Like the Simulator it is
// single-threaded.
type Network struct {
	sim      *Simulator
	latency  LatencyModel
	handler  Handler
	dropRate float64
	pool     []*delivery // recycled in-flight message structs
	stats    Stats
}

// NewNetwork returns a network on sim with the given latency model
// (ConstLatency(0) gives instantaneous delivery). The delivery freelist is
// adopted from a previously Released network when one is pooled.
func NewNetwork(sim *Simulator, latency LatencyModel) *Network {
	n := &Network{sim: sim, latency: latency}
	if v := deliveryFreePool.Get(); v != nil {
		n.pool = v.([]*delivery)
	}
	return n
}

// Release hands the network's delivery freelist to the cross-run pool for
// the next NewNetwork to adopt. Pooled structs are zeroed, so nothing of
// this run's payloads leaks to the next. The network remains usable
// afterwards with a cold freelist. Safe to call repeatedly.
func (n *Network) Release() {
	if len(n.pool) > 0 {
		deliveryFreePool.Put(n.pool)
	}
	n.pool = nil
}

// SetHandler installs the handler that receives every delivered message,
// whatever its destination. Until one is set, sends count as NoRoute.
func (n *Network) SetHandler(h Handler) { n.handler = h }

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

// Send queues msg for delivery from from to to after the model latency, with
// the loss and latency draws taken from rng: the sending flow's own stream
// (one per marketplace session in market.Engine), so each flow's randomness
// stays self-contained however the flows interleave on the virtual clock.
// Undeliverable messages (no handler, random loss) are counted and silently
// discarded — like the real network the model stands in for, the
// sender learns nothing.
func (n *Network) Send(from, to NodeID, msg Message, rng *rand.Rand) {
	n.stats.Sent++
	if n.handler == nil {
		n.stats.NoRoute++
		return
	}
	if n.dropRate > 0 && rng.Float64() < n.dropRate {
		n.stats.Dropped++
		return
	}
	delay := n.latency.Latency(from, to, rng)
	// A typed event instead of a closure: delivery is the simulator's hottest
	// schedule path, and the pooled struct form costs zero allocations per
	// message in steady state.
	var d *delivery
	if k := len(n.pool); k > 0 {
		d = n.pool[k-1]
		n.pool = n.pool[:k-1]
	} else {
		d = new(delivery)
	}
	*d = delivery{net: n, from: from, msg: msg}
	n.sim.scheduleEvent(delay, event{d: d})
}
