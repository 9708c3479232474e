package gossip

import (
	"fmt"
	"sync"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// Carrier is the evidence-kind-specific half of a node: the local trust
// state of one shard, able to export what it recorded since the last
// exchange as a mergeable delta and to fold a peer shard's delta in. The
// complaint path implements it implicitly (a complaints.Store attachment,
// see Attach); Book implements it for the Bayesian posterior kind; any
// estimator that can speak trust.EvidenceDelta — mui.Network does — can
// attach through AttachCarrier and ride the same fabric.
//
// Carriers that bypass the node's write methods must report their locally
// recorded evidence through Node.NoteRecorded — that is what drives the
// fabric's staleness accounting and tells Drain when deliveries are still
// outstanding.
type Carrier interface {
	// TakeDelta drains the evidence recorded locally since the last take;
	// nil means nothing pending.
	TakeDelta() (trust.EvidenceDelta, error)
	// ApplyDelta folds a peer shard's delta into the local trust state.
	ApplyDelta(delta trust.EvidenceDelta) error
}

// Node is one shard's endpoint in a cell's exchange fabric. It carries
// evidence of exactly one kind, fixed by what gets attached:
//
//   - Attach(store) makes it a complaints.Store decorator — the sub-engine
//     uses the node as its reputation store, writes pass straight through to
//     the inner store (a shard always sees its *own* evidence immediately —
//     gossip only controls how fast it learns about the others') and are
//     buffered in the node's outbox until the next Fabric.Exchange ships
//     them as a complaint delta; reads pass through untouched, with
//     staleness accounting against the cell-wide undelivered backlog.
//   - AttachBook / AttachCarrier make it a typed-evidence endpoint: the
//     carrier owns the trust state, the node only moves deltas.
//
// A Node is created by NewFabric and attached by the engine
// (market.Config.GossipNode). It is safe for concurrent use once attached;
// the Fabric only touches the outbox between engine windows.
type Node struct {
	fabric *Fabric
	index  int

	mu            sync.Mutex
	inner         complaints.Store
	carrier       Carrier
	outbox        []complaints.Complaint
	pendingWeight int // evidence items recorded since the last take
}

var (
	_ complaints.Store           = (*Node)(nil)
	_ complaints.Counter         = (*Node)(nil)
	_ complaints.BatchFiler      = (*Node)(nil)
	_ complaints.Snapshotter     = (*Node)(nil)
	_ complaints.Flusher         = (*Node)(nil)
	_ complaints.Aggregator      = (*Node)(nil)
	_ complaints.MutationCounter = (*Node)(nil)
	_ complaints.ReadAccounter   = (*Node)(nil)
)

// Attach binds the node to the shard's complaint store. The engine calls it
// once, before any session runs; re-attaching (or mixing attachment kinds)
// panics — it would silently split the shard's evidence between two homes.
func (n *Node) Attach(inner complaints.Store) {
	if inner == nil {
		panic("gossip: Attach(nil store)")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inner != nil || n.carrier != nil {
		panic(fmt.Sprintf("gossip: node %d attached twice", n.index))
	}
	n.inner = inner
}

// AttachCarrier binds the node to a typed evidence carrier — the shard's
// trust state for a non-complaint evidence kind. Same contract as Attach:
// once, before any session runs.
func (n *Node) AttachCarrier(c Carrier) {
	if c == nil {
		panic("gossip: AttachCarrier(nil)")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inner != nil || n.carrier != nil {
		panic(fmt.Sprintf("gossip: node %d attached twice", n.index))
	}
	n.carrier = c
}

// AttachBook creates the shard's posterior-evidence book — per-observer
// Beta estimators whose recorded outcomes gossip as posterior deltas — and
// attaches it as the node's carrier.
func (n *Node) AttachBook(cfg trust.BetaConfig) *Book {
	b := newBook(n, cfg)
	n.AttachCarrier(b)
	return b
}

// Index reports the node's shard index within its fabric.
func (n *Node) Index() int { return n.index }

// NoteRecorded informs the fabric that the carrier recorded items pieces of
// local evidence: every peer shard now has evidence it has not seen, which
// is the quantity stale-read accounting and Fabric.Drain are defined over.
// The complaint path calls it internally from File/FileBatch; Book calls it
// per recorded outcome; external carriers must call it themselves.
func (n *Node) NoteRecorded(items int) {
	if items <= 0 {
		return
	}
	n.mu.Lock()
	n.pendingWeight += items
	n.mu.Unlock()
	n.fabric.noteFiled(n.index, items)
}

// NoteReads records trust reads served by the carrier at this shard, for
// the fabric's stale-read accounting. The complaint path calls it
// internally from the read methods; Book calls it per estimate.
func (n *Node) NoteReads(reads int) {
	if reads > 0 {
		n.fabric.noteReads(n.index, reads)
	}
}

// store returns the attached inner store, panicking on use-before-Attach or
// on a store call against a typed-carrier node — programmer errors (the
// engine attaches at construction and owns the evidence kind).
func (n *Node) store() complaints.Store {
	n.mu.Lock()
	inner, carrier := n.inner, n.carrier
	n.mu.Unlock()
	if inner == nil {
		if carrier != nil {
			panic(fmt.Sprintf("gossip: node %d carries typed evidence, not a complaint store", n.index))
		}
		panic(fmt.Sprintf("gossip: node %d used before Attach", n.index))
	}
	return inner
}

// File implements complaints.Store: the complaint lands on the local store
// immediately and is buffered for the next exchange.
func (n *Node) File(c complaints.Complaint) error {
	inner := n.store()
	n.mu.Lock()
	n.outbox = append(n.outbox, c)
	n.pendingWeight++
	n.mu.Unlock()
	n.fabric.noteFiled(n.index, 1)
	return inner.File(c)
}

// FileBatch implements complaints.BatchFiler, buffering the whole batch with
// one lock pass and forwarding it through the inner store's own fast path.
func (n *Node) FileBatch(batch []complaints.Complaint) error {
	if len(batch) == 0 {
		return nil
	}
	inner := n.store()
	n.mu.Lock()
	n.outbox = append(n.outbox, batch...)
	n.pendingWeight += len(batch)
	n.mu.Unlock()
	n.fabric.noteFiled(n.index, len(batch))
	return complaints.FileAll(inner, batch)
}

// takeDelta drains the evidence recorded since the last take — the outbox
// wrapped as a complaint delta, or whatever the carrier exports — along
// with its recorded-item weight (the unit the fabric's staleness ledger
// counts in; for complaints weight equals the delta's Items, for richer
// kinds several records may coalesce into fewer rows). Called by the Fabric
// between engine windows.
func (n *Node) takeDelta() (delta trust.EvidenceDelta, weight int, err error) {
	n.mu.Lock()
	carrier := n.carrier
	weight = n.pendingWeight
	n.pendingWeight = 0
	var out []complaints.Complaint
	if carrier == nil {
		out = n.outbox
		n.outbox = nil
	}
	n.mu.Unlock()
	if carrier != nil {
		delta, err = carrier.TakeDelta()
		return delta, weight, err
	}
	if len(out) == 0 {
		return nil, weight, nil
	}
	return complaints.NewDelta(out), weight, nil
}

// applyDelta lands a peer shard's delta on the local trust state: complaint
// deltas go through the store's batched fast path — one lock pass per shard
// of a striped store, exactly like the async drain — and typed deltas go to
// the carrier. Remote evidence is *not* re-buffered for export; the
// Fabric's schedule owns propagation, and the receiver-side dedup ledger is
// what keeps each delta's effect exactly-once however many paths deliver it.
func (n *Node) applyDelta(delta trust.EvidenceDelta) error {
	n.mu.Lock()
	inner, carrier := n.inner, n.carrier
	n.mu.Unlock()
	if carrier != nil {
		return carrier.ApplyDelta(delta)
	}
	if inner == nil {
		panic(fmt.Sprintf("gossip: node %d used before Attach", n.index))
	}
	cd, ok := delta.(*complaints.Delta)
	if !ok {
		return fmt.Errorf("gossip: node %d holds a complaint store but received a %s delta", n.index, delta.Kind())
	}
	return complaints.FileAll(inner, cd.Complaints)
}

// Received implements complaints.Store.
func (n *Node) Received(p trust.PeerID) (int, error) {
	n.fabric.noteReads(n.index, 1)
	return n.store().Received(p)
}

// Filed implements complaints.Store.
func (n *Node) Filed(p trust.PeerID) (int, error) {
	n.fabric.noteReads(n.index, 1)
	return n.store().Filed(p)
}

// Counts implements complaints.Counter through the inner store's combined
// lookup when it has one.
func (n *Node) Counts(p trust.PeerID) (received, filed int, err error) {
	n.fabric.noteReads(n.index, 1)
	inner := n.store()
	if c, ok := inner.(complaints.Counter); ok {
		return c.Counts(p)
	}
	received, err = inner.Received(p)
	if err != nil {
		return 0, 0, err
	}
	filed, err = inner.Filed(p)
	return received, filed, err
}

// CountsAll implements complaints.Snapshotter through the inner store's bulk
// scan when it has one; the scan counts as len(peers) reads sharing one
// staleness observation, keeping stale-read fractions comparable to
// complaints.AsyncStats.
func (n *Node) CountsAll(peers []trust.PeerID) ([]complaints.Tally, error) {
	n.fabric.noteReads(n.index, len(peers))
	return complaints.CountsAll(n.store(), peers)
}

// ProductAggregate implements complaints.Aggregator by delegating to the
// inner store. Remote deltas land through complaints.FileAll (applyDelta),
// i.e. the same batched write path that maintains the inner aggregate — so
// gossip-applied evidence is aggregated for free and the O(1) average sees
// exactly what a CountsAll scan through this node would. ok=false before
// Attach, for typed-carrier nodes, and over non-aggregating inner stores.
func (n *Node) ProductAggregate() (excess int64, tracked int, ok bool, err error) {
	n.mu.Lock()
	inner := n.inner
	n.mu.Unlock()
	if agg, isAgg := inner.(complaints.Aggregator); isAgg {
		return agg.ProductAggregate()
	}
	return 0, 0, false, nil
}

// Mutations implements complaints.MutationCounter by delegating to the inner
// store (ok=false when it keeps no counter).
func (n *Node) Mutations() (gen uint64, ok bool) {
	n.mu.Lock()
	inner := n.inner
	n.mu.Unlock()
	if mc, isMC := inner.(complaints.MutationCounter); isMC {
		return mc.Mutations()
	}
	return 0, false
}

// NoteScanReads implements complaints.ReadAccounter: an average served from
// the aggregate counts like the CountsAll scan it replaces — len(population)
// reads sharing one staleness observation against the fabric's ledger — and
// the call is propagated to an accounting inner store (a write-behind store
// under this node keeps its own stale-read fraction scan-identical).
func (n *Node) NoteScanReads(peers int) {
	if peers <= 0 {
		return
	}
	n.fabric.noteReads(n.index, peers)
	n.mu.Lock()
	inner := n.inner
	n.mu.Unlock()
	if ra, isRA := inner.(complaints.ReadAccounter); isRA {
		ra.NoteScanReads(peers)
	}
}

// Flush implements complaints.Flusher, draining a write-behind inner store.
// It does not trigger an exchange — sync points belong to the Fabric.
func (n *Node) Flush() error {
	if f, ok := n.store().(complaints.Flusher); ok {
		return f.Flush()
	}
	return nil
}
