package gossip

import (
	"fmt"
	"sync"

	"trustcoop/internal/trust"
)

// Book is the posterior evidence of one shard: per-observer Bayesian
// direct-experience estimators (trust.Beta) whose recorded outcomes are
// buffered — inside each estimator's pending accumulator — for the next
// exchange, and whose state absorbs peer shards' posterior deltas with the
// decay compensation trust.Beta.ApplyDelta defines. It is what lets an
// estimator-backed cell (per-agent Beta trust, the mui path) shard and
// gossip exactly like the complaint-store cells: the engine asks the Book
// for each agent's estimator instead of constructing private Betas.
//
// Determinism contract: takeDelta exports observers in sorted order and each
// estimator's rows in sorted subject order, so the delta a shard ships is a
// canonical function of what it recorded — independent of map iteration and
// of how many engines ran concurrently between sync points.
type Book struct {
	node *Node
	cfg  trust.BetaConfig

	mu        sync.Mutex
	observers map[trust.PeerID]*trust.Beta
}

func newBook(node *Node, cfg trust.BetaConfig) *Book {
	return &Book{node: node, cfg: cfg, observers: make(map[trust.PeerID]*trust.Beta)}
}

// beta returns the observer's estimator, creating it on first use.
func (b *Book) beta(observer trust.PeerID) *trust.Beta {
	b.mu.Lock()
	defer b.mu.Unlock()
	est := b.observers[observer]
	if est == nil {
		est = trust.NewBeta(b.cfg)
		b.observers[observer] = est
	}
	return est
}

// Estimator returns the observer's trust view through the book: records
// land on the observer's local Beta immediately (a shard always sees its
// own evidence at once) and are buffered for the next exchange; estimates
// read the local posterior, with staleness accounting against the cell-wide
// undelivered backlog.
func (b *Book) Estimator(observer trust.PeerID) trust.Estimator {
	return &bookView{book: b, observer: observer}
}

// takeDelta returns one canonical posterior delta holding every observer's
// pending evidence (the shared trust.ExportPosterior fold), or nil when
// nothing was recorded since the last take.
func (b *Book) takeDelta() trust.EvidenceDelta {
	b.mu.Lock()
	observers := make([]trust.PeerID, 0, len(b.observers))
	for o := range b.observers {
		observers = append(observers, o)
	}
	b.mu.Unlock()
	// A nil *PosteriorDelta must come back as a nil interface.
	if out := trust.ExportPosterior(observers, b.beta); out != nil {
		return out
	}
	return nil
}

// applyDelta folds each row into its observer's estimator (the shared
// trust.(*PosteriorDelta).ApplyPerObserver routing), creating estimators
// for observers first seen second-hand.
func (b *Book) applyDelta(delta trust.EvidenceDelta) error {
	if delta == nil {
		return nil
	}
	d, ok := delta.(*trust.PosteriorDelta)
	if !ok {
		return fmt.Errorf("gossip: book cannot apply %s delta", delta.Kind())
	}
	return d.ApplyPerObserver(b.beta)
}

// bookView adapts one observer's slice of the book to trust.Estimator.
type bookView struct {
	book     *Book
	observer trust.PeerID
}

var _ trust.Estimator = (*bookView)(nil)

// Record implements trust.Estimator.
func (v *bookView) Record(peer trust.PeerID, o trust.Outcome) {
	v.book.beta(v.observer).Record(peer, o)
	v.book.node.noteRecorded()
}

// Estimate implements trust.Estimator.
func (v *bookView) Estimate(peer trust.PeerID) trust.Estimate {
	v.book.node.noteReads(1)
	return v.book.beta(v.observer).Estimate(peer)
}
