package complaints_test

import (
	"math"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// countingStore counts the per-peer reads that reach a store. It hides the
// optional extensions, so an assessor over it takes the scan path.
type countingStore struct {
	complaints.Store
	reads *int
}

func (s countingStore) Received(p trust.PeerID) (int, error) { *s.reads++; return s.Store.Received(p) }
func (s countingStore) Filed(p trust.PeerID) (int, error)    { *s.reads++; return s.Store.Filed(p) }

// TestSharedEstimatorMatchesPerObserver: complaint trust is global, so an
// Estimator with no observer — the one the marketplace plans every session
// through — estimates exactly what each agent's own estimator does, bit for
// bit, and reads the store exactly as often. Two twin stores of every
// backend take the same complaints; after each one, the shared estimator
// reads one store and a per-observer estimator (a different observer each
// time, over one shared assessor, as the engine builds them) the other. The
// pgrid backend draws randomness on reads and the async one counts them, so
// a read the two made differently would show in a later estimate or in the
// store's accounting.
func TestSharedEstimatorMatchesPerObserver(t *testing.T) {
	ids := batchPeers(9)
	workload := batchWorkload(ids, 60)
	for _, spec := range complaints.Backends() {
		t.Run(spec, func(t *testing.T) {
			for _, counted := range []bool{false, true} {
				a, b := openBackend(t, spec), openBackend(t, spec)
				var readsA, readsB int
				ra, rb := a, b
				if counted {
					ra, rb = countingStore{a, &readsA}, countingStore{b, &readsB}
				}
				shared := &complaints.Estimator{Assessor: complaints.NewAssessor(ra, ids)}
				perAgent := complaints.NewAssessor(rb, ids)
				for i, c := range workload {
					if err := a.File(c); err != nil {
						t.Fatal(err)
					}
					if err := b.File(c); err != nil {
						t.Fatal(err)
					}
					q := ids[(i*5)%len(ids)]
					own := &complaints.Estimator{Assessor: perAgent, Observer: ids[i%len(ids)]}
					got, want := shared.Estimate(q), own.Estimate(q)
					if math.Float64bits(got.P) != math.Float64bits(want.P) ||
						math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
						math.Float64bits(got.Samples) != math.Float64bits(want.Samples) {
						t.Fatalf("counted=%v complaint %d: shared Estimate(%s) = %+v, observer %s's = %+v",
							counted, i, q, got, ids[i%len(ids)], want)
					}
				}
				if counted && readsA == 0 {
					t.Fatal("no store read was counted; the comparison proves nothing")
				}
				if readsA != readsB {
					t.Errorf("shared estimator made %d store reads, per-observer ones %d", readsA, readsB)
				}
				if sa, ok := a.(*complaints.AsyncStore); ok {
					if got, want := sa.Stats(), b.(*complaints.AsyncStore).Stats(); got != want {
						t.Errorf("async accounting: shared %+v, per-observer %+v", got, want)
					}
				}
			}
		})
	}
}
