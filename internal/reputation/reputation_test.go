package reputation

import (
	"errors"
	"sync"
	"testing"

	"trustcoop/internal/trust"
)

// The ledger queries below exist for the tests' checks of what the engine
// logged; no program reads them.

// Len reports the number of recorded events.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// DefectionsBy counts how often the peer walked away.
func (l *Ledger) DefectionsBy(p trust.PeerID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.DefectedBy == p {
			n++
		}
	}
	return n
}

// CompletionRate is the fraction of non-aborted sessions that completed.
func (l *Ledger) CompletionRate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	done, total := 0, 0
	for _, e := range l.events {
		if e.Aborted {
			continue
		}
		total++
		if e.Completed {
			done++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(done) / float64(total)
}

func TestLedgerAppendAndQueries(t *testing.T) {
	var l Ledger
	l.Append(Event{Supplier: "s1", Consumer: "c1", Completed: true, Round: 0})
	l.Append(Event{Supplier: "s1", Consumer: "c2", DefectedBy: "s1", Round: 1})
	l.Append(Event{Supplier: "s2", Consumer: "c1", Aborted: true, Round: 2})
	l.Append(Event{Supplier: "s2", Consumer: "c2", DefectedBy: "c2", Round: 3})

	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if got := l.DefectionsBy("s1"); got != 1 {
		t.Errorf("DefectionsBy(s1) = %d, want 1", got)
	}
	if got := l.DefectionsBy("c1"); got != 0 {
		t.Errorf("DefectionsBy(c1) = %d, want 0", got)
	}
	// Completion rate ignores the aborted session: 1 of 3.
	if got := l.CompletionRate(); got < 0.333 || got > 0.334 {
		t.Errorf("CompletionRate = %g, want 1/3", got)
	}
}

func TestLedgerEmptyCompletionRate(t *testing.T) {
	var l Ledger
	if got := l.CompletionRate(); got != 0 {
		t.Errorf("empty CompletionRate = %g", got)
	}
}

func TestLedgerEventsIsACopy(t *testing.T) {
	var l Ledger
	l.Append(Event{Supplier: "s"})
	evs := l.Events()
	evs[0].Supplier = "tampered"
	if l.Events()[0].Supplier != "s" {
		t.Error("Events exposed internal storage")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	var l Ledger
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				l.Append(Event{Supplier: "s", Consumer: "c", Completed: true})
				_ = l.CompletionRate()
			}
		}()
	}
	wg.Wait()
	if l.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", l.Len())
	}
}

func TestFeedRecordsBothViews(t *testing.T) {
	sup := trust.NewBeta(trust.BetaConfig{})
	con := trust.NewBeta(trust.BetaConfig{})
	ests := map[trust.PeerID]trust.Estimator{"s": sup, "c": con}
	lookup := func(id trust.PeerID) trust.Estimator { return ests[id] }

	if err := Feed(Event{Supplier: "s", Consumer: "c", Completed: true}, lookup, nil); err != nil {
		t.Fatal(err)
	}
	if est := sup.Estimate("c"); est.Samples != 1 || est.P <= 0.5 {
		t.Errorf("supplier's view of consumer after completion: %+v", est)
	}
	if est := con.Estimate("s"); est.Samples != 1 || est.P <= 0.5 {
		t.Errorf("consumer's view of supplier after completion: %+v", est)
	}

	// Supplier defects: consumer records a defection; supplier still
	// records the consumer as cooperative (the consumer did nothing wrong).
	if err := Feed(Event{Supplier: "s", Consumer: "c", DefectedBy: "s"}, lookup, nil); err != nil {
		t.Fatal(err)
	}
	if coop, defect := con.Counts("s"); coop != 1 || defect != 1 {
		t.Errorf("consumer's counts of supplier = %g/%g, want 1/1", coop, defect)
	}
	if coop, defect := sup.Counts("c"); coop != 2 || defect != 0 {
		t.Errorf("supplier's counts of consumer = %g/%g, want 2/0", coop, defect)
	}
}

func TestFeedAbortedRecordsNothing(t *testing.T) {
	b := trust.NewBeta(trust.BetaConfig{})
	lookup := func(trust.PeerID) trust.Estimator { return b }
	if err := Feed(Event{Supplier: "s", Consumer: "c", Aborted: true}, lookup, nil); err != nil {
		t.Fatal(err)
	}
	if est := b.Estimate("s"); est.Samples != 0 {
		t.Error("aborted session fed the estimators")
	}
}

func TestFeedLiarInverts(t *testing.T) {
	liar := trust.NewBeta(trust.BetaConfig{})
	honest := trust.NewBeta(trust.BetaConfig{})
	ests := map[trust.PeerID]trust.Estimator{"liar": liar, "h": honest}
	lookup := func(id trust.PeerID) trust.Estimator { return ests[id] }
	isLiar := func(id trust.PeerID) bool { return id == "liar" }

	if err := Feed(Event{Supplier: "liar", Consumer: "h", Completed: true}, lookup, isLiar); err != nil {
		t.Fatal(err)
	}
	// The liar records the honest completion as a defection.
	if coop, defect := liar.Counts("h"); coop != 0 || defect != 1 {
		t.Errorf("liar counts = %g/%g, want inverted 0/1", coop, defect)
	}
	// The honest party records the truth.
	if coop, defect := honest.Counts("liar"); coop != 1 || defect != 0 {
		t.Errorf("honest counts = %g/%g, want 1/0", coop, defect)
	}
}

func TestFeedNilEstimatorIsSkipped(t *testing.T) {
	// A party without an estimator (e.g. a naive baseline agent) must not
	// crash the feed.
	b := trust.NewBeta(trust.BetaConfig{})
	lookup := func(id trust.PeerID) trust.Estimator {
		if id == "s" {
			return b
		}
		return nil
	}
	if err := Feed(Event{Supplier: "s", Consumer: "c", Completed: true}, lookup, nil); err != nil {
		t.Fatal(err)
	}
	if est := b.Estimate("c"); est.Samples != 1 {
		t.Error("existing estimator skipped")
	}
}

// failingRecorder is a trust.FallibleRecorder whose store always fails; its
// plain Record path counts silent drops so the test can prove Feed prefers
// the fallible path.
type failingRecorder struct {
	err         error
	silentDrops int
	tried       int
}

func (f *failingRecorder) Record(trust.PeerID, trust.Outcome) { f.silentDrops++ }
func (f *failingRecorder) TryRecord(trust.PeerID, trust.Outcome) error {
	f.tried++
	return f.err
}
func (f *failingRecorder) Estimate(trust.PeerID) trust.Estimate { return trust.Estimate{P: 0.5} }

func TestFeedSurfacesRecordErrors(t *testing.T) {
	boom := errors.New("complaint store unreachable")
	supplier := &failingRecorder{err: boom}
	consumer := &failingRecorder{err: nil}
	ests := map[trust.PeerID]trust.Estimator{"s": supplier, "c": consumer}
	lookup := func(id trust.PeerID) trust.Estimator { return ests[id] }

	err := Feed(Event{Supplier: "s", Consumer: "c", DefectedBy: "c"}, lookup, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Feed = %v, want the store error", err)
	}
	if supplier.silentDrops != 0 || consumer.silentDrops != 0 {
		t.Error("Feed used the silent Record path on a FallibleRecorder")
	}
	// The consumer's (healthy) record must still have been attempted after
	// the supplier's failure.
	if consumer.tried != 1 {
		t.Errorf("consumer records attempted = %d, want 1", consumer.tried)
	}
}
