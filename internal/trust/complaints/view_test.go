package complaints_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/gossip"
)

// accounted forwards every Store extension of inner and counts the
// population reads an assessor makes over it: the peers it scans through
// CountsAll and the peers it reports through NoteScanReads when the
// aggregate or the generation cache serves an average instead.
type accounted struct {
	inner          complaints.Store
	scanned, noted int
}

func (s *accounted) File(c complaints.Complaint) error        { return s.inner.File(c) }
func (s *accounted) Received(p trust.PeerID) (int, error)     { return s.inner.Received(p) }
func (s *accounted) Filed(p trust.PeerID) (int, error)        { return s.inner.Filed(p) }
func (s *accounted) FileBatch(b []complaints.Complaint) error { return complaints.FileAll(s.inner, b) }

func (s *accounted) Counts(p trust.PeerID) (received, filed int, err error) {
	if c, ok := s.inner.(complaints.Counter); ok {
		return c.Counts(p)
	}
	if received, err = s.inner.Received(p); err != nil {
		return 0, 0, err
	}
	filed, err = s.inner.Filed(p)
	return received, filed, err
}

func (s *accounted) CountsAll(peers []trust.PeerID) ([]complaints.Tally, error) {
	s.scanned += len(peers)
	return complaints.CountsAll(s.inner, peers)
}

func (s *accounted) ProductAggregate() (excess int64, tracked int, ok bool, err error) {
	if agg, isAgg := s.inner.(complaints.Aggregator); isAgg {
		return agg.ProductAggregate()
	}
	return 0, 0, false, nil
}

func (s *accounted) Mutations() (gen uint64, ok bool) {
	if mc, isMC := s.inner.(complaints.MutationCounter); isMC {
		return mc.Mutations()
	}
	return 0, false
}

func (s *accounted) NoteScanReads(peers int) {
	s.noted += peers
	if ra, ok := s.inner.(complaints.ReadAccounter); ok {
		ra.NoteScanReads(peers)
	}
}

func (s *accounted) Flush() error {
	if f, ok := s.inner.(complaints.Flusher); ok {
		return f.Flush()
	}
	return nil
}

// viewBackend opens one store of a kind, with a reading of its own read
// accounting (nil for stores that keep none).
type viewBackend struct {
	name string
	open func(t *testing.T) (complaints.Store, func() any)
}

// viewBackends is every registered backend, both async stackings, and a
// gossip node over a sharded store.
func viewBackends() []viewBackend {
	var out []viewBackend
	for _, spec := range append(complaints.Backends(), "async:sharded", "async:pgrid") {
		out = append(out, viewBackend{spec, func(t *testing.T) (complaints.Store, func() any) {
			store := openBackend(t, spec)
			if a, ok := store.(*complaints.AsyncStore); ok {
				return store, func() any { return a.Stats() }
			}
			return store, nil
		}})
	}
	return append(out, viewBackend{"gossip node over sharded", func(t *testing.T) (complaints.Store, func() any) {
		f, err := gossip.NewFabric(gossip.Config{Period: 1}, 21, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k := range 2 {
			f.Node(k).Attach(complaints.NewShardedStore(4))
		}
		return f.Node(0), func() any { return f.Stats() }
	}})
}

// TestAssessorViewMatchesLiteral holds an assessor built from a population
// size and a lister to a literal Assessor{Population: ids} and to
// NewAssessor(store, ids), each over a twin store that takes the same
// complaints, on every backend. Every average, normalised score,
// probability and estimate must agree bit for bit, before and after
// complaints name a peer outside the population. The view must account the
// same population reads as NewAssessor's, noted and scanned alike, and as
// many in all as the literal's. The lister must run at most once, and not
// at all while the store's aggregate serves every average.
func TestAssessorViewMatchesLiteral(t *testing.T) {
	ids := batchPeers(9)
	workload := batchWorkload(ids, 60)
	outsider := trust.PeerID("outsider")
	probes := []trust.PeerID{ids[0], ids[4], ids[len(ids)-1], outsider}
	for _, b := range viewBackends() {
		t.Run(b.name, func(t *testing.T) {
			type twin struct {
				acc   *accounted
				stats func() any
				as    complaints.Assessor
			}
			open := func() twin {
				store, stats := b.open(t)
				return twin{acc: &accounted{inner: store}, stats: stats}
			}
			view, literal, listed := open(), open(), open()
			lists := 0
			view.as = complaints.NewAssessorView(view.acc, len(ids), func() []trust.PeerID {
				lists++
				return slices.Clone(ids)
			})
			literal.as = complaints.Assessor{Store: literal.acc, Population: ids}
			listed.as = complaints.NewAssessor(listed.acc, ids)
			twins := []*twin{&view, &literal, &listed}

			file := func(batch []complaints.Complaint) {
				t.Helper()
				for _, tw := range twins {
					if err := complaints.FileAll(tw.acc, batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			drain := func() {
				t.Helper()
				for _, tw := range twins {
					if err := tw.acc.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// aggregated reports whether the store's aggregate can serve the
			// view's average: it has one, and it tracks no outsider.
			aggregated := func() bool {
				_, tracked, ok, err := view.acc.ProductAggregate()
				return err == nil && ok && tracked <= len(ids)
			}
			check := func(phase string) {
				t.Helper()
				served := aggregated()
				reads := func(tw twin) []float64 {
					avg, err := tw.as.AverageProduct()
					if err != nil {
						t.Fatalf("%s: average: %v", phase, err)
					}
					out := []float64{avg}
					for _, q := range probes {
						score, err := tw.as.NormalisedScore(q)
						if err != nil {
							t.Fatalf("%s: score of %s: %v", phase, q, err)
						}
						p, err := tw.as.Probability(q)
						if err != nil {
							t.Fatalf("%s: probability of %s: %v", phase, q, err)
						}
						est := (&complaints.Estimator{Assessor: tw.as}).Estimate(q)
						out = append(out, score, p, est.P, est.Confidence, est.Samples)
					}
					return out
				}
				got := reads(view)
				for _, ref := range []struct {
					name string
					tw   twin
				}{{"literal", literal}, {"NewAssessor", listed}} {
					want := reads(ref.tw)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: view read %d = %v, %s's %v", phase, i, got[i], ref.name, want[i])
						}
					}
				}
				if lists > 1 {
					t.Fatalf("%s: lister ran %d times", phase, lists)
				}
				if served && lists != 0 {
					t.Fatalf("%s: lister ran while the aggregate served the average", phase)
				}
				if view.acc.noted != listed.acc.noted || view.acc.scanned != listed.acc.scanned {
					t.Fatalf("%s: view noted %d and scanned %d peers, NewAssessor %d and %d",
						phase, view.acc.noted, view.acc.scanned, listed.acc.noted, listed.acc.scanned)
				}
				if v, l := view.acc.noted+view.acc.scanned, literal.acc.noted+literal.acc.scanned; v != l {
					t.Fatalf("%s: view accounted %d population reads, literal %d", phase, v, l)
				}
				if view.stats != nil && !reflect.DeepEqual(view.stats(), listed.stats()) {
					t.Fatalf("%s: read accounting %+v, NewAssessor's %+v", phase, view.stats(), listed.stats())
				}
			}

			check("empty")
			for i := 0; i < 40; i += 10 {
				file(workload[i : i+10])
				check(fmt.Sprintf("after %d complaints", i+10))
			}
			file(workload[40:])
			drain()
			check("all complaints drained")
			file([]complaints.Complaint{{From: ids[2], About: outsider}, {From: outsider, About: ids[3]}})
			drain()
			check("after complaints naming an outsider")
			file(workload[:10])
			check("after more complaints")
			if lists != 1 {
				t.Fatalf("lister ran %d times, want once: the outsider forces a scan", lists)
			}
		})
	}
}

// TestAssessorViewListsOnceUnderConcurrentScans has four goroutines read a
// view over a store that makes every average a scan, so they race to list
// the population: the lister must run once and every average must equal a
// literal assessor's.
func TestAssessorViewListsOnceUnderConcurrentScans(t *testing.T) {
	ids := batchPeers(16)
	store := openBackend(t, "sharded")
	if err := complaints.FileAll(store, batchWorkload(ids, 40)); err != nil {
		t.Fatal(err)
	}
	want, err := complaints.Assessor{Store: store, Population: ids}.AverageProduct()
	if err != nil {
		t.Fatal(err)
	}
	var lists atomic.Int32
	view := complaints.NewAssessorView(scanOnly{store}, len(ids), func() []trust.PeerID {
		lists.Add(1)
		return slices.Clone(ids)
	})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				got, err := view.AverageProduct()
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("average %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := lists.Load(); n != 1 {
		t.Errorf("lister ran %d times, want once", n)
	}
}
