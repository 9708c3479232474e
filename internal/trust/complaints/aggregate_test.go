package complaints_test

import (
	"fmt"
	"sync"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// scanOnly hides a store's Aggregator and MutationCounter extensions while
// delegating everything else, forcing an assessor over it onto the CountsAll
// scan path. It wraps the *same* underlying store, so scan and aggregate
// read identical state — the comparison isolates the read path.
type scanOnly struct {
	inner complaints.Store
}

func (s scanOnly) File(c complaints.Complaint) error        { return s.inner.File(c) }
func (s scanOnly) Received(p trust.PeerID) (int, error)     { return s.inner.Received(p) }
func (s scanOnly) Filed(p trust.PeerID) (int, error)        { return s.inner.Filed(p) }
func (s scanOnly) FileBatch(b []complaints.Complaint) error { return complaints.FileAll(s.inner, b) }
func (s scanOnly) CountsAll(p []trust.PeerID) ([]complaints.Tally, error) {
	return complaints.CountsAll(s.inner, p)
}

// TestAggregateMatchesScanOnEveryBackend is the tentpole's equivalence
// contract: for every registered backend, the assessor's population average
// — served O(1) from the store's incremental aggregate, or from the
// write-generation cache, whatever the backend supports — must equal the
// full CountsAll scan *bit for bit*, after every phase of an interleaved
// File / FileBatch / FileAll workload (FileAll is the exact path gossip's
// applyDelta lands remote deltas through) and again after the write-behind
// drain. The checks run mid-run on purpose: an async store's aggregate must
// agree with what a scan at the same moment would see (same flush schedule,
// same staleness), and a cached average must be invalidated by every write.
func TestAggregateMatchesScanOnEveryBackend(t *testing.T) {
	ids := batchPeers(9)
	workload := batchWorkload(ids, 60)
	for _, spec := range complaints.Backends() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			store := openBackend(t, spec)
			fast := complaints.NewAssessor(store, ids)
			slow := complaints.Assessor{Store: scanOnly{store}, Population: ids}

			check := func(phase string) {
				t.Helper()
				want, err := slow.AverageProduct()
				if err != nil {
					t.Fatalf("%s: scan average: %v", phase, err)
				}
				got, err := fast.AverageProduct()
				if err != nil {
					t.Fatalf("%s: fast average: %v", phase, err)
				}
				if got != want {
					t.Fatalf("%s: average diverged: aggregate/cache %v, scan %v", phase, got, want)
				}
				for _, q := range []trust.PeerID{ids[0], ids[4], ids[len(ids)-1]} {
					ws, err := slow.NormalisedScore(q)
					if err != nil {
						t.Fatal(err)
					}
					gs, err := fast.NormalisedScore(q)
					if err != nil {
						t.Fatal(err)
					}
					if gs != ws {
						t.Fatalf("%s: score(%s) diverged: %v vs %v", phase, q, gs, ws)
					}
				}
			}

			check("empty")
			// Phase 1: singles, with reads interleaved so a stale cache or a
			// missed invalidation would be caught between writes.
			for i, c := range workload[:20] {
				if err := store.File(c); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					check(fmt.Sprintf("single %d", i))
				}
			}
			check("after singles")
			// Phase 2: one large batch through the store's own FileBatch.
			if err := complaints.FileAll(store, workload[20:45]); err != nil {
				t.Fatal(err)
			}
			check("after batch")
			// Phase 3: the gossip-apply shape — FileAll of a remote delta's
			// complaints — followed by more singles.
			if err := complaints.FileAll(store, workload[45:]); err != nil {
				t.Fatal(err)
			}
			for _, c := range workload[:5] {
				if err := store.File(c); err != nil {
					t.Fatal(err)
				}
			}
			check("after gossip-shaped applies")
			drain(t, store)
			check("after drain")
		})
	}
}

// TestAggregateFallsBackWhenComplaintsLeavePopulation pins the aggregate's
// safety net: the O(1) average is only valid when every complaint party is
// in the assessor's population. When complaints mention an outsider, the
// store's tracked count exceeds the population and the assessor must fall
// back to the exact scan — still matching the scan-only assessor bit for
// bit rather than silently over-counting.
func TestAggregateFallsBackWhenComplaintsLeavePopulation(t *testing.T) {
	for _, spec := range []string{"memory", "sharded"} {
		t.Run(spec, func(t *testing.T) {
			store := openBackend(t, spec)
			pop := batchPeers(4)
			outsider := trust.PeerID("outsider")
			for _, c := range []complaints.Complaint{
				{From: pop[0], About: pop[1]},
				{From: pop[2], About: outsider},
				{From: outsider, About: pop[3]},
			} {
				if err := store.File(c); err != nil {
					t.Fatal(err)
				}
			}
			fast := complaints.NewAssessor(store, pop)
			slow := complaints.Assessor{Store: scanOnly{store}, Population: pop}
			want, err := slow.AverageProduct()
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.AverageProduct()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("outsider fallback broken: got %v, scan %v", got, want)
			}
		})
	}
}

// TestAggregateRaceHammer drives concurrent File/FileBatch writers against
// NormalisedScore readers on both centralised backends (run under -race in
// CI), then quiesces and asserts the incremental aggregate landed exactly on
// the full scan: excess == Σ(smoothedProduct − 1) and the averages are
// bit-identical. A torn update, a bump outside the critical section, or a
// missed batch-path delta would show up as a diverged sum.
func TestAggregateRaceHammer(t *testing.T) {
	ids := batchPeers(16)
	for _, spec := range []string{"memory", "sharded"} {
		t.Run(spec, func(t *testing.T) {
			store := openBackend(t, spec)
			assessor := complaints.NewAssessor(store, ids)
			const writers, rounds = 4, 200
			var writerWG, readerWG sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				writerWG.Add(1)
				go func() {
					defer writerWG.Done()
					for r := 0; r < rounds; r++ {
						c := complaints.Complaint{
							From:  ids[(w*5+r)%len(ids)],
							About: ids[(w*3+2*r+1)%len(ids)],
						}
						if r%3 == 0 {
							_ = complaints.FileAll(store, []complaints.Complaint{c, {From: c.About, About: c.From}})
						} else {
							_ = store.File(c)
						}
					}
				}()
			}
			stop := make(chan struct{})
			readerWG.Add(1)
			go func() {
				defer readerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if _, err := assessor.NormalisedScore(ids[0]); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			writerWG.Wait()
			close(stop)
			readerWG.Wait()

			agg, ok := store.(complaints.Aggregator)
			if !ok {
				t.Fatalf("%s: expected Aggregator", spec)
			}
			excess, tracked, okAgg, err := agg.ProductAggregate()
			if err != nil || !okAgg {
				t.Fatalf("aggregate read: ok=%v err=%v", okAgg, err)
			}
			tallies, err := complaints.CountsAll(store, ids)
			if err != nil {
				t.Fatal(err)
			}
			var wantExcess int64
			wantTracked := 0
			for _, ty := range tallies {
				wantExcess += int64(ty.Received+1)*int64(ty.Filed+1) - 1
				if ty.Received != 0 || ty.Filed != 0 {
					wantTracked++
				}
			}
			if excess != wantExcess || tracked != wantTracked {
				t.Fatalf("quiesced aggregate diverged: excess %d (want %d), tracked %d (want %d)",
					excess, wantExcess, tracked, wantTracked)
			}
			fastAvg, err := assessor.AverageProduct()
			if err != nil {
				t.Fatal(err)
			}
			slowAvg, err := (complaints.Assessor{Store: scanOnly{store}, Population: ids}).AverageProduct()
			if err != nil {
				t.Fatal(err)
			}
			if fastAvg != slowAvg {
				t.Fatalf("quiesced average diverged: %v vs %v", fastAvg, slowAvg)
			}
		})
	}
}
