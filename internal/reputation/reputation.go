// Package reputation implements the paper's reputation-management module
// (Figure 1): collecting the results of interactions and making them
// available to the trust-learning layer. The Ledger is the system of record
// for exchange outcomes; Feed translates outcomes into the per-agent trust
// estimators (with optional witness lying, for the adversarial experiments).
package reputation

import (
	"fmt"
	"sync"

	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

// Event is the outcome of one exchange session.
type Event struct {
	Supplier, Consumer trust.PeerID
	// Completed reports a fully settled exchange.
	Completed bool
	// DefectedBy names the party that walked away mid-exchange; empty when
	// Completed or Aborted.
	DefectedBy trust.PeerID
	// Aborted reports a session killed by the network (lost messages), with
	// neither party at fault.
	Aborted bool
	// SupplierLoss and ConsumerLoss are the realised losses (≥ 0) at the
	// point the exchange ended.
	SupplierLoss, ConsumerLoss goods.Money
	// Round is the session index, for time-series analyses.
	Round int
}

// Ledger is an append-only log of exchange outcomes. It is safe for
// concurrent use.
type Ledger struct {
	mu     sync.Mutex
	events []Event
}

// Append records an event.
func (l *Ledger) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// Events returns a copy of the log.
func (l *Ledger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Feed routes an event into both parties' trust estimators: each party
// records whether the other cooperated. Aborted sessions record nothing (the
// network, not the partner, failed). Liars invert what they record — with a
// shared witness structure (the Mui network or the complaint store behind
// the estimators) this poisons what other peers later learn from them.
//
// Estimators whose evidence writes can fail (trust.FallibleRecorder — the
// complaint estimator over a decentralised or write-behind store) are
// recorded through TryRecord, and the first failure is returned so dropped
// complaints surface in experiment results instead of silently skewing them.
// Both parties' records are attempted even when the first fails.
func Feed(e Event, estimatorOf func(trust.PeerID) trust.Estimator, isLiar func(trust.PeerID) bool) error {
	if e.Aborted {
		return nil
	}
	record := func(observer, subject trust.PeerID, cooperated bool) error {
		est := estimatorOf(observer)
		if est == nil {
			return nil
		}
		if isLiar != nil && isLiar(observer) {
			cooperated = !cooperated
		}
		o := trust.Outcome{Cooperated: cooperated}
		if fr, ok := est.(trust.FallibleRecorder); ok {
			if err := fr.TryRecord(subject, o); err != nil {
				return fmt.Errorf("reputation: record %s about %s: %w", observer, subject, err)
			}
			return nil
		}
		est.Record(subject, o)
		return nil
	}
	err := record(e.Supplier, e.Consumer, e.DefectedBy != e.Consumer)
	if err2 := record(e.Consumer, e.Supplier, e.DefectedBy != e.Supplier); err == nil {
		err = err2
	}
	return err
}
