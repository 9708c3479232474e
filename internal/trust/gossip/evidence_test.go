package gossip

import (
	"fmt"
	"math/rand"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// TestDoubleRingDeliversExactlyOnce is the receiver-dedup acceptance
// property: the double ring ships every envelope over two redundant paths,
// so without dedup most complaints would double-count — with the
// (origin, seq) ledger every shard's counts must equal the shared store
// exactly, the duplicates must be visibly dropped, and nothing a
// single-path topology delivers may be lost.
func TestDoubleRingDeliversExactlyOnce(t *testing.T) {
	ids := testPeers(8)
	for _, shards := range []int{2, 3, 5, 6} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := newTestFabric(t, Config{Period: 2, Topology: TopologyDoubleRing}, shards, "sharded")
			stream := randomStream(rand.New(rand.NewSource(23)), ids, 90)
			fileRoundRobin(t, f, stream, 2)
			assertCountsEqualShared(t, f, stream, ids)
			st := f.Stats()
			if shards > 2 && st.DedupDropped == 0 {
				t.Errorf("double ring over %d shards dropped no duplicates: %+v", shards, st)
			}
			// Applied deliveries stay exactly-once: each complaint reaches
			// each of the shards−1 peers precisely one time.
			if want := int64(len(stream) * (shards - 1)); st.ComplaintsDelivered != want {
				t.Errorf("delivered %d complaints, want %d", st.ComplaintsDelivered, want)
			}
		})
	}
}

// TestSinglePathTopologiesNeverDedup: mesh and ring schedules are already
// duplicate-free, so the receiver ledger must stay invisible there — that
// is what keeps the refactored fabric byte-identical to the pre-evidence-
// plane snapshots.
func TestSinglePathTopologiesNeverDedup(t *testing.T) {
	ids := testPeers(6)
	for _, topo := range []Topology{TopologyMesh, TopologyRing} {
		f := newTestFabric(t, Config{Period: 3, Topology: topo}, 4, "memory")
		stream := randomStream(rand.New(rand.NewSource(9)), ids, 80)
		fileRoundRobin(t, f, stream, 3)
		if st := f.Stats(); st.DedupDropped != 0 {
			t.Errorf("%s: schedule produced duplicates for the receiver to drop: %+v", topo, st)
		}
	}
}

// TestDoubleRingDeterministic: redundant paths plus dedup stay a pure
// function of (seed, stream) — the lockstep cell contract.
func TestDoubleRingDeterministic(t *testing.T) {
	ids := testPeers(5)
	run := func() (Stats, [][]complaints.Tally) {
		f := newTestFabric(t, Config{Period: 2, Topology: TopologyDoubleRing}, 5, "memory")
		stream := randomStream(rand.New(rand.NewSource(31)), ids, 70)
		fileRoundRobin(t, f, stream, 2)
		var tallies [][]complaints.Tally
		for k := 0; k < len(f.nodes); k++ {
			ts, err := f.Node(k).CountsAll(ids)
			if err != nil {
				t.Fatal(err)
			}
			tallies = append(tallies, ts)
		}
		return f.Stats(), tallies
	}
	s1, t1 := run()
	s2, t2 := run()
	s1.ApplyNs, s2.ApplyNs = 0, 0
	if s1 != s2 {
		t.Errorf("stats diverged:\n%+v\nvs\n%+v", s1, s2)
	}
	for k := range t1 {
		for i := range t1[k] {
			if t1[k][i] != t2[k][i] {
				t.Errorf("node %d peer %d counts diverged", k, i)
			}
		}
	}
}

// newPosteriorFabric builds a fabric whose nodes carry posterior books.
func newPosteriorFabric(t *testing.T, cfg Config, shards int, beta trust.BetaConfig) (*Fabric, []*Book) {
	t.Helper()
	f, err := NewFabric(cfg, 77, shards)
	if err != nil {
		t.Fatal(err)
	}
	books := make([]*Book, shards)
	for k := 0; k < shards; k++ {
		books[k] = f.Node(k).AttachBook(beta)
	}
	return f, books
}

type obsRecord struct {
	observer, subject trust.PeerID
	coop              bool
}

func randomObservations(rng *rand.Rand, ids []trust.PeerID, n int) []obsRecord {
	out := make([]obsRecord, n)
	for i := range out {
		o := ids[rng.Intn(len(ids))]
		s := ids[rng.Intn(len(ids))]
		out[i] = obsRecord{observer: o, subject: s, coop: rng.Intn(3) > 0}
	}
	return out
}

// TestPosteriorMeshPeriodOneEqualsSharedBeta is the posterior half of the
// subsystem's headline property, and the reason every estimator can now
// shard: full-mesh posterior gossip synced after every observation leaves
// every shard's book with *exactly* — bit for bit, for any decay — the
// per-peer posterior a single shared set of Beta estimators fed the same
// observation stream holds. The decay compensation in Beta.ApplyDelta is
// what makes this hold below decay 1: each remote observation decays the
// receiver's counts once, precisely as it would have locally.
func TestPosteriorMeshPeriodOneEqualsSharedBeta(t *testing.T) {
	ids := testPeers(7)
	for _, shards := range []int{2, 3, 5} {
		for _, decay := range []float64{0, 0.9, 0.5} { // 0 means 1 (no forgetting)
			name := fmt.Sprintf("shards=%d/decay=%v", shards, decay)
			t.Run(name, func(t *testing.T) {
				cfg := trust.BetaConfig{Decay: decay}
				f, books := newPosteriorFabric(t, Config{Period: 1}, shards, cfg)
				stream := randomObservations(rand.New(rand.NewSource(int64(shards)*10+int64(decay*10))), ids, 120)

				shared := map[trust.PeerID]*trust.Beta{}
				sharedBeta := func(o trust.PeerID) *trust.Beta {
					if shared[o] == nil {
						shared[o] = trust.NewBeta(cfg)
					}
					return shared[o]
				}
				// One observation per sync: record at the round-robin shard,
				// exchange, and mirror into the shared estimator.
				for i, r := range stream {
					k := i % shards
					books[k].Estimator(r.observer).Record(r.subject, trust.Outcome{Cooperated: r.coop})
					if err := f.Exchange(); err != nil {
						t.Fatal(err)
					}
					sharedBeta(r.observer).Record(r.subject, trust.Outcome{Cooperated: r.coop})
				}
				if err := f.Drain(); err != nil {
					t.Fatal(err)
				}
				for k, book := range books {
					for _, obs := range ids {
						for _, sub := range ids {
							wc, wd := sharedBeta(obs).Counts(sub)
							gc, gd := book.beta(obs).Counts(sub)
							if wc != gc || wd != gd {
								t.Fatalf("shard %d observer %s subject %s: (%v,%v) vs shared (%v,%v)",
									k, obs, sub, gc, gd, wc, wd)
							}
						}
					}
				}
			})
		}
	}
}

// TestPosteriorLargerWindowsConvergeWithoutForgetting: with decay 1 the
// posterior is a plain sum, so whatever the window size and topology —
// redundant double ring included — a drained fabric leaves every book equal
// to the shared estimator.
func TestPosteriorLargerWindowsConvergeWithoutForgetting(t *testing.T) {
	ids := testPeers(6)
	for _, topo := range []Topology{TopologyMesh, TopologyRing, TopologyDoubleRing} {
		t.Run(string(topo), func(t *testing.T) {
			f, books := newPosteriorFabric(t, Config{Period: 5, Topology: topo}, 4, trust.BetaConfig{})
			stream := randomObservations(rand.New(rand.NewSource(41)), ids, 100)
			shared := map[trust.PeerID]*trust.Beta{}
			sharedBeta := func(o trust.PeerID) *trust.Beta {
				if shared[o] == nil {
					shared[o] = trust.NewBeta(trust.BetaConfig{})
				}
				return shared[o]
			}
			idx := 0
			for idx < len(stream) {
				for k := 0; k < len(f.nodes); k++ {
					for w := 0; w < 5 && idx < len(stream); w++ {
						r := stream[idx]
						books[k].Estimator(r.observer).Record(r.subject, trust.Outcome{Cooperated: r.coop})
						sharedBeta(r.observer).Record(r.subject, trust.Outcome{Cooperated: r.coop})
						idx++
					}
				}
				if err := f.Exchange(); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Drain(); err != nil {
				t.Fatal(err)
			}
			for k, book := range books {
				for _, obs := range ids {
					for _, sub := range ids {
						wc, wd := sharedBeta(obs).Counts(sub)
						gc, gd := book.beta(obs).Counts(sub)
						if wc != gc || wd != gd {
							t.Fatalf("%s shard %d observer %s subject %s: (%v,%v) vs shared (%v,%v)",
								topo, k, obs, sub, gc, gd, wc, wd)
						}
					}
				}
			}
		})
	}
}

// TestKindMismatchSurfacesAsError: a fabric accidentally mixing a complaint
// shard with a posterior shard must fail loudly at apply time, not corrupt
// either side's state.
func TestKindMismatchSurfacesAsError(t *testing.T) {
	f, err := NewFabric(Config{Period: 1}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.Node(0).Attach(complaints.NewMemoryStore())
	f.Node(1).AttachBook(trust.BetaConfig{})
	if err := f.Node(0).File(complaints.Complaint{From: "a", About: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Exchange(); err == nil {
		t.Error("complaint delta applied to a posterior book without error")
	}
}

// TestAttachContractsForCarriers: a node carries one kind of evidence,
// attached once — a book and a store never share a node.
func TestAttachContractsForCarriers(t *testing.T) {
	f, err := NewFabric(Config{Period: 1}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	f.Node(0).AttachBook(trust.BetaConfig{})
	mustPanic("store attach over book", func() { f.Node(0).Attach(complaints.NewMemoryStore()) })
	mustPanic("second book", func() { f.Node(0).AttachBook(trust.BetaConfig{}) })
	mustPanic("store read on book node", func() { _, _ = f.Node(0).Received("p") })
	f.Node(1).Attach(complaints.NewMemoryStore())
	mustPanic("book attach over store", func() { f.Node(1).AttachBook(trust.BetaConfig{}) })
}

// TestPosteriorColumnarBitIdenticalToDense is the codec half of the PR 10
// acceptance property: the columnar (interned, column-split varint) encoding
// is pure representation — running the same observation stream through a
// dense-policy fabric and a columnar-policy fabric leaves every book with
// bit-identical counts, while the columnar fabric delivers strictly fewer
// bytes. Redundant-path topologies ride along so the (origin, seq) dedup
// ledger is exercised over columnar payloads too.
func TestPosteriorColumnarBitIdenticalToDense(t *testing.T) {
	ids := testPeers(8)
	for _, topo := range []Topology{TopologyMesh, TopologyDoubleRing} {
		t.Run(string(topo), func(t *testing.T) {
			stream := randomObservations(rand.New(rand.NewSource(77)), ids, 150)
			run := func(pol trust.ExportPolicy) ([]*Book, Stats) {
				cfg := trust.BetaConfig{Decay: 0.9, Export: pol}
				f, books := newPosteriorFabric(t, Config{Period: 3, Topology: topo}, 4, cfg)
				for i, r := range stream {
					books[i%4].Estimator(r.observer).Record(r.subject, trust.Outcome{Cooperated: r.coop})
					if (i+1)%(4*3) == 0 {
						if err := f.Exchange(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := f.Drain(); err != nil {
					t.Fatal(err)
				}
				return books, f.Stats()
			}
			dense, denseStats := run(trust.ExportPolicy{})
			col, colStats := run(trust.ExportPolicy{Codec: trust.PosteriorColumnar})
			for k := range dense {
				for _, obs := range ids {
					for _, sub := range ids {
						dc, dd := dense[k].beta(obs).Counts(sub)
						cc, cd := col[k].beta(obs).Counts(sub)
						if dc != cc || dd != cd {
							t.Fatalf("shard %d observer %s subject %s: columnar (%v,%v) vs dense (%v,%v)",
								k, obs, sub, cc, cd, dc, dd)
						}
					}
				}
			}
			// The ≥2× acceptance floor is pinned at the bench shape (large
			// deltas, where the interned table amortises —
			// TestColumnarBeatsDenseTwofold and the artifact guard); these
			// eight-peer deltas are small, so require a 1.25× win here.
			if colStats.BytesDelivered*5 > denseStats.BytesDelivered*4 {
				t.Errorf("columnar delivered %d bytes vs dense %d: not a 1.25x win",
					colStats.BytesDelivered, denseStats.BytesDelivered)
			}
			if colStats.ComplaintsDelivered != denseStats.ComplaintsDelivered ||
				colStats.DedupDropped != denseStats.DedupDropped {
				t.Errorf("codec changed delivery accounting: columnar %+v vs dense %+v", colStats, denseStats)
			}
		})
	}
}
