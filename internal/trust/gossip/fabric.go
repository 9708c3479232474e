package gossip

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
)

// envelope is one shard's exported evidence delta in flight: the encoded
// payload plus the (origin, seq) identity receiver-side dedup keys on.
// Payloads travel encoded and are decoded at each destination — the
// deterministic codec is part of the EvidenceDelta contract, and shipping
// bytes keeps the accounting honest and the path identical to what a real
// wire would do.
type envelope struct {
	origin  int
	seq     uint64
	kind    trust.EvidenceKind
	payload []byte
	// items is the delta's Items() — delivery accounting units.
	items int
	// weight is the number of evidence records the delta covers — the
	// staleness-ledger unit (several records may coalesce into fewer items
	// for rich delta kinds; for complaints weight == items).
	weight int
	bytes  int64
}

// Receiver-side dedup state: seenSeq[dst][origin] is the highest sequence
// number shard dst has applied from origin. A high-water mark suffices —
// in O(shards²) memory instead of one ledger entry per delivery — because
// every shipped topology delivers each (dst, origin) stream's *first*
// arrivals in strictly ascending seq order: per-origin seqs are taken
// ascending, mesh delivers within the take round, and a directed ring
// chain adds a constant per-(origin, dst, direction) hop delay, so the
// earliest arrival of seq s+1 is always after the earliest arrival of
// seq s. A duplicate (the double ring's slower chain, a redundant mesh
// path) therefore always carries seq ≤ the mark. A future transport that
// could deliver a seq's *only* copy after a later seq's first copy (e.g.
// per-envelope random latency) must widen this back to a set.

// relay is an envelope awaiting its next directed hop (the ring topologies).
type relay struct {
	env envelope
	dir int // +1 clockwise, −1 counterclockwise
}

// Fabric is one cell's exchange coordinator: it owns the shard Nodes and,
// at every sync point, ships the shards' evidence deltas between them over
// the configured topology. Exchange must be called from a single
// coordinating goroutine while no sub-engine is running a window —
// eval.RunCell's lockstep loop — which is what makes the exchanged evidence
// independent of how many engines run concurrently between sync points.
type Fabric struct {
	cfg   Config
	seed  int64
	nodes []*Node

	round   int64
	seqs    []uint64   // per-origin envelope sequence numbers
	relays  [][]relay  // ring topologies: envelopes awaiting their next hop, per holder
	seenSeq [][]uint64 // receiver dedup marks: seenSeq[dst][origin], see above

	// pendingIn[k] counts evidence records filed at *other* shards and not
	// yet delivered to shard k — the exact "evidence exists that this shard
	// has not seen" quantity stale-read accounting is defined over. Filing
	// optimistically marks every peer pending; Exchange settles each
	// recipient as its first delivery lands (or as the fanout schedule
	// passes it over — see itemsUnscheduled). Nodes consult the slice
	// concurrently with engine windows, hence atomics.
	pendingIn []atomic.Int64

	batchesDelivered atomic.Int64
	itemsDelivered   atomic.Int64
	itemsUnscheduled atomic.Int64
	bytesDelivered   atomic.Int64
	dedupDropped     atomic.Int64
	applyNs          atomic.Int64
	reads, stale     atomic.Int64
}

// NewFabric builds the exchange fabric of a cell split into `shards`
// sub-engines. The seed drives the exchange schedule (the fanout-limited
// mesh rotation); derive it from the cell seed (eval.DeriveSeed) so a cell's
// gossip stream is decorrelated from its sub-engines' session streams.
func NewFabric(cfg Config, seed int64, shards int) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("gossip: fabric needs Period > 0 (gossip is off)")
	}
	if shards < 2 {
		return nil, fmt.Errorf("gossip: need at least 2 shards to exchange, have %d", shards)
	}
	f := &Fabric{
		cfg:       cfg,
		seed:      seed,
		seqs:      make([]uint64, shards),
		relays:    make([][]relay, shards),
		seenSeq:   make([][]uint64, shards),
		pendingIn: make([]atomic.Int64, shards),
	}
	for k := range f.seenSeq {
		f.seenSeq[k] = make([]uint64, shards)
	}
	f.nodes = make([]*Node, shards)
	for k := range f.nodes {
		f.nodes[k] = &Node{fabric: f, index: k}
	}
	return f, nil
}

// Shards reports the fabric's shard count.
func (f *Fabric) Shards() int { return len(f.nodes) }

// Node returns shard k's endpoint, to be attached to that sub-engine's
// reputation store or estimator carrier (market.Config.GossipNode).
func (f *Fabric) Node(k int) *Node { return f.nodes[k] }

// Exchange runs one sync round: it drains every node's pending evidence in
// shard order into sequence-stamped envelopes and delivers them per the
// topology —
//
//   - mesh: each shard's envelope goes directly to every other shard (or to
//     a seed-deterministic rotating subset of Fanout of them), then is
//     consumed;
//   - ring: each shard forwards its new envelope plus last round's relayed
//     envelopes one hop clockwise; an envelope keeps relaying until the next
//     hop would be its origin;
//   - ring2: like ring, but every envelope starts a clockwise *and* a
//     counterclockwise relay — two redundant paths, with the receiver-side
//     dedup ledger guaranteeing each envelope still applies exactly once.
//
// Envelopes land by decoding the payload and folding it into the
// destination's store (the complaints.BatchFiler fast path) or carrier.
// Every delivery is attempted even after a failure; the first error is
// returned.
func (f *Fabric) Exchange() error {
	f.round++
	n := len(f.nodes)
	envs := make([]*envelope, n)
	var firstErr error
	for k, node := range f.nodes {
		env, err := f.take(k, node)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		envs[k] = env
	}
	start := time.Now()
	deliver := func(dst int, env envelope) {
		if env.seq <= f.seenSeq[dst][env.origin] {
			// A redundant path delivered this envelope before: drop it here,
			// at the receiver — exactly-once no longer depends on the
			// schedule never producing duplicates.
			f.dedupDropped.Add(1)
			return
		}
		f.seenSeq[dst][env.origin] = env.seq
		if err := f.nodes[dst].applyEnvelope(env); err != nil && firstErr == nil {
			firstErr = err
		}
		f.pendingIn[dst].Add(-int64(env.weight))
		f.batchesDelivered.Add(1)
		f.itemsDelivered.Add(int64(env.items))
		f.bytesDelivered.Add(env.bytes)
	}
	switch f.cfg.topology() {
	case TopologyRing:
		f.exchangeRing(envs, deliver, ringDirs)
	case TopologyDoubleRing:
		f.exchangeRing(envs, deliver, doubleRingDirs)
	default:
		f.exchangeMesh(envs, deliver)
	}
	f.applyNs.Add(time.Since(start).Nanoseconds())
	return firstErr
}

// take drains shard k's pending evidence into a fresh envelope; nil when the
// shard recorded nothing since the last take.
func (f *Fabric) take(k int, node *Node) (*envelope, error) {
	delta, weight, err := node.takeDelta()
	if err != nil || delta == nil || delta.Items() == 0 {
		if weight > 0 {
			// Defensive: evidence was recorded but nothing exports (a carrier
			// violating the NoteRecorded contract). Settle the peers so Drain
			// cannot spin on deliveries that will never ship.
			for d := range f.pendingIn {
				if d != k {
					f.pendingIn[d].Add(-int64(weight))
				}
			}
		}
		return nil, err
	}
	f.seqs[k]++
	payload := delta.Encode()
	return &envelope{
		origin:  k,
		seq:     f.seqs[k],
		kind:    delta.Kind(),
		payload: payload,
		items:   delta.Items(),
		weight:  weight,
		bytes:   int64(len(payload)),
	}, nil
}

// applyEnvelope decodes the payload and lands it on the node's trust state.
func (n *Node) applyEnvelope(env envelope) error {
	delta, err := trust.DecodeEvidence(env.kind, env.payload)
	if err != nil {
		return fmt.Errorf("gossip: decode %s delta from shard %d: %w", env.kind, env.origin, err)
	}
	return n.applyDelta(delta)
}

// exchangeMesh delivers each shard's envelope to its scheduled peers and
// consumes it.
func (f *Fabric) exchangeMesh(envs []*envelope, deliver func(int, envelope)) {
	n := len(f.nodes)
	// One schedule stream per round, derived from (seed, round): the peer
	// subsets depend only on the fabric's identity and the round number,
	// never on what the shards did — reproducible and decorrelated.
	var rng *rand.Rand
	if f.cfg.Fanout > 0 && f.cfg.Fanout < n-1 {
		rng = seedmix.NewRand(seedmix.Derive(f.seed, uint64(f.round)))
	}
	for k, env := range envs {
		if env == nil {
			continue
		}
		peers := f.meshPeers(k, rng)
		for _, dst := range peers {
			deliver(dst, *env)
		}
		// A fanout-limited schedule consumes the envelope here: the peers it
		// skipped will never receive this evidence (deliberate partial
		// propagation — sampled second-hand monitoring). Settle their
		// pending counters and make the loss measurable.
		if skipped := n - 1 - len(peers); skipped > 0 {
			for d := 0; d < n; d++ {
				if d == k || slices.Contains(peers, d) {
					continue
				}
				f.pendingIn[d].Add(-int64(env.weight))
			}
			f.itemsUnscheduled.Add(int64(skipped * env.items))
		}
	}
}

// meshPeers lists the destinations of shard k's envelope this round,
// ascending.
func (f *Fabric) meshPeers(k int, rng *rand.Rand) []int {
	n := len(f.nodes)
	others := make([]int, 0, n-1)
	for d := 0; d < n; d++ {
		if d != k {
			others = append(others, d)
		}
	}
	if rng == nil {
		return others
	}
	perm := rng.Perm(len(others))
	peers := make([]int, 0, f.cfg.Fanout)
	for _, i := range perm[:f.cfg.Fanout] {
		peers = append(peers, others[i])
	}
	sort.Ints(peers)
	return peers
}

var (
	ringDirs       = []int{1}
	doubleRingDirs = []int{1, -1}
)

// exchangeRing forwards each shard's new envelope (in every configured
// direction) plus its held relays one hop. A relay whose next hop would be
// its origin has completed its loop and is retired; on the double ring the
// two directed loops overlap, and the receiver-side dedup in deliver is
// what keeps each envelope's effect exactly-once.
func (f *Fabric) exchangeRing(envs []*envelope, deliver func(int, envelope), dirs []int) {
	n := len(f.nodes)
	next := make([][]relay, n)
	for k := 0; k < n; k++ {
		send := make([]relay, 0, len(f.relays[k])+len(dirs))
		if envs[k] != nil {
			for _, dir := range dirs {
				send = append(send, relay{env: *envs[k], dir: dir})
			}
		}
		send = append(send, f.relays[k]...)
		for _, r := range send {
			dst := (k + r.dir + n) % n
			deliver(dst, r.env)
			if after := (dst + r.dir + n) % n; after != r.env.origin {
				next[dst] = append(next[dst], r)
			}
		}
	}
	f.relays = next
}

// Drain runs as many extra exchange rounds as the topology needs to finish
// delivering everything its schedule will ever deliver (1 for mesh, up to
// shards−1 for ring loops), so end-of-run evidence that is still in flight
// reaches its recipients before post-run assessment. It stops as soon as no
// shard awaits a first delivery — on the double ring that can be before the
// slower directed loop retires, because everything it still carries is a
// duplicate the receivers would drop. Evidence a fanout-limited mesh
// already passed over is *not* recovered — that loss is the deliberate
// partial-propagation semantics of Fanout, visible as
// Stats.ItemsUnscheduled.
func (f *Fabric) Drain() error {
	rounds := 1
	if t := f.cfg.topology(); t == TopologyRing || t == TopologyDoubleRing {
		rounds = len(f.nodes) - 1
	}
	var firstErr error
	for i := 0; i < rounds; i++ {
		if !f.inFlight() {
			break
		}
		if err := f.Exchange(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// inFlight reports whether any shard still awaits scheduled deliveries.
func (f *Fabric) inFlight() bool {
	for k := range f.pendingIn {
		if f.pendingIn[k].Load() > 0 {
			return true
		}
	}
	return false
}

// noteFiled records evidence entering shard origin's pending export: every
// peer now has evidence it has not seen. (A fanout-limited mesh settles the
// peers its schedule later skips in exchangeMesh.)
func (f *Fabric) noteFiled(origin, n int) {
	for k := range f.pendingIn {
		if k != origin {
			f.pendingIn[k].Add(int64(n))
		}
	}
}

// noteReads records n trust reads at shard reader, stale exactly when
// evidence destined for *this* shard has not arrived yet — a recipient that
// already received an envelope reads fresh even while it keeps relaying
// around a ring, and a shard's own pending export never makes its own reads
// stale (local evidence is visible immediately).
func (f *Fabric) noteReads(reader, n int) {
	f.reads.Add(int64(n))
	if f.pendingIn[reader].Load() > 0 {
		f.stale.Add(int64(n))
	}
}

// Stats snapshots the fabric's accounting.
func (f *Fabric) Stats() Stats {
	return Stats{
		Rounds:                f.round,
		BatchesDelivered:      f.batchesDelivered.Load(),
		ComplaintsDelivered:   f.itemsDelivered.Load(),
		ComplaintsUnscheduled: f.itemsUnscheduled.Load(),
		BytesDelivered:        f.bytesDelivered.Load(),
		DedupDropped:          f.dedupDropped.Load(),
		ApplyNs:               f.applyNs.Load(),
		Reads:                 f.reads.Load(),
		StaleReads:            f.stale.Load(),
	}
}
