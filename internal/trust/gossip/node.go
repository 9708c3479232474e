package gossip

import (
	"fmt"
	"sync"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

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
//   - AttachBook makes it a posterior-evidence endpoint: the Book owns the
//     trust state, the node only moves deltas.
//
// A Node is created by NewFabric and attached by the engine
// (market.Config.GossipNode). It is safe for concurrent use once attached;
// the Fabric only touches the outbox between engine windows.
type Node struct {
	fabric *Fabric
	index  int

	mu            sync.Mutex
	inner         complaints.Store
	book          *Book
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
	if n.inner != nil || n.book != nil {
		panic(fmt.Sprintf("gossip: node %d attached twice", n.index))
	}
	n.inner = inner
}

// AttachBook creates the shard's posterior-evidence book — per-observer
// Beta estimators whose recorded outcomes gossip as posterior deltas — and
// attaches it to the node. Same contract as Attach: once, before any
// session runs.
func (n *Node) AttachBook(cfg trust.BetaConfig) *Book {
	b := newBook(n, cfg)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inner != nil || n.book != nil {
		panic(fmt.Sprintf("gossip: node %d attached twice", n.index))
	}
	n.book = b
	return b
}

// noteRecorded informs the fabric that the book recorded one piece of
// local evidence: every peer shard now has evidence it has not seen, which
// is the quantity stale-read accounting and Fabric.Drain are defined over.
func (n *Node) noteRecorded() {
	n.mu.Lock()
	n.pendingWeight++
	n.mu.Unlock()
	n.fabric.noteFiled(n.index, 1)
}

// noteReads records trust reads the book served at this shard, for the
// fabric's stale-read accounting.
func (n *Node) noteReads(reads int) {
	if reads > 0 {
		n.fabric.noteReads(n.index, reads)
	}
}

// store returns the attached inner store, panicking on use-before-Attach or
// on a store call against a book node — programmer errors (the engine
// attaches at construction and owns the evidence kind).
func (n *Node) store() complaints.Store {
	n.mu.Lock()
	inner, book := n.inner, n.book
	n.mu.Unlock()
	if inner == nil {
		if book != nil {
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
// wrapped as a complaint delta, or the book's posterior delta — along
// with its recorded-item weight (the unit the fabric's staleness ledger
// counts in; for complaints weight equals the delta's Items, for richer
// kinds several records may coalesce into fewer rows). Called by the Fabric
// between engine windows.
func (n *Node) takeDelta() (delta trust.EvidenceDelta, weight int) {
	n.mu.Lock()
	book := n.book
	weight = n.pendingWeight
	n.pendingWeight = 0
	var out []complaints.Complaint
	if book == nil {
		out = n.outbox
		n.outbox = nil
	}
	n.mu.Unlock()
	if book != nil {
		return book.takeDelta(), weight
	}
	if len(out) == 0 {
		return nil, weight
	}
	return complaints.NewDelta(out), weight
}

// applyDelta lands a peer shard's delta on the local trust state: complaint
// deltas go through the store's batched fast path — one lock pass per shard
// of a striped store, exactly like the async drain — and posterior deltas
// go to the book. Remote evidence is *not* re-buffered for export; the
// Fabric's schedule owns propagation, and the receiver-side dedup ledger is
// what keeps each delta's effect exactly-once however many paths deliver it.
func (n *Node) applyDelta(delta trust.EvidenceDelta) error {
	n.mu.Lock()
	inner, book := n.inner, n.book
	n.mu.Unlock()
	if book != nil {
		return book.applyDelta(delta)
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
// Attach, for book nodes, and over non-aggregating inner stores.
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
