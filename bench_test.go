package trustcoop

// The repository-wide benchmark harness: one sub-benchmark for each
// experiment of the evaluation suite that stands in for the paper's missing
// quantitative section (eval.IDs lists all thirteen, cmd/evalrun regenerates
// them, docs/PERF.md records reference tables) plus
// micro-benchmarks for the hot paths whose complexity the paper makes claims
// about (the scheduler, whose quadratic greedy runs here as a sort plus a
// linear walk, and the logarithmic P-Grid lookup).
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/eval"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
	"trustcoop/internal/pgrid"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/mui"
)

// BenchmarkExperiments regenerates every quick experiment table (eval.IDs)
// at each worker-pool width of interest: serial (workers=1) and the
// hardware width (GOMAXPROCS). The ratio of the two is the shard runner's
// wall-clock speedup.
func BenchmarkExperiments(b *testing.B) {
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, id := range eval.IDs() {
		for _, workers := range widths {
			b.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tbl, err := eval.Run(id, eval.RunConfig{Seed: 42, Quick: true, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if len(tbl.Rows) == 0 {
						b.Fatal("empty table")
					}
				}
			})
		}
	}
}

// BenchmarkMarketSessionsConcurrent measures the engine's in-flight session
// window: the same workload with sessions strictly sequential vs interleaved
// on the virtual clock.
func BenchmarkMarketSessionsConcurrent(b *testing.B) {
	agents, err := agent.NewPopulation(agent.PopConfig{Honest: 16, Opportunist: 4, Stake: 2 * goods.Unit},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, conc := range []int{1, 16} {
		b.Run(fmt.Sprintf("concurrency=%d", conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := market.NewEngine(market.Config{
					Seed: int64(i), Sessions: 100, Agents: agents, Concurrency: conc})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleSafe is the scheduler's cost measurement. The Lawler
// order is a sort (n log n) and the payment walk is linear, so ns/op grows
// about in proportion to the item count, not ≈ 4× per size doubling as the
// paper's literal quadratic greedy would.
func BenchmarkScheduleSafe(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			gen := goods.DefaultGenConfig()
			gen.Items = n
			bundle, err := goods.Generate(gen, rng)
			if err != nil {
				b.Fatal(err)
			}
			terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
			stake := exchange.MinimalStake(terms)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exchange.ScheduleSafe(terms, exchange.Stakes{Supplier: stake}, exchange.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleTrustAware measures the exposure-band scheduler.
func BenchmarkScheduleTrustAware(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			gen := goods.DefaultGenConfig()
			gen.Items = n
			bundle, err := goods.Generate(gen, rng)
			if err != nil {
				b.Fatal(err)
			}
			terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
			cap := exchange.MinimalExposure(terms)
			caps := exchange.ExposureCaps{Supplier: cap, Consumer: cap}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exchange.ScheduleTrustAware(terms, caps, exchange.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinimalStake measures the Δ* analysis used by E7.
func BenchmarkMinimalStake(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gen := goods.DefaultGenConfig()
	gen.Items = 64
	bundle, err := goods.Generate(gen, rng)
	if err != nil {
		b.Fatal(err)
	}
	terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if exchange.MinimalStake(terms) < 0 {
			b.Fatal("negative stake")
		}
	}
}

// BenchmarkPGridQuery shows the O(log N) routing cost of the reputation
// store of [2].
func BenchmarkPGridQuery(b *testing.B) {
	for _, peers := range []int{64, 1024} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			g, err := pgrid.New(pgrid.Config{Peers: peers, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			key := g.KeyFor("subject")
			if err := g.Insert(key, "record"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.Query(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// storePeers builds the store benchmarks' population ("peer-0000", …).
func storePeers(n int) []trust.PeerID {
	ids := make([]trust.PeerID, n)
	for i := range ids {
		ids[i] = trust.PeerID(fmt.Sprintf("peer-%04d", i))
	}
	return ids
}

// openComplaintStoreBench builds a store for one benchmark run,
// pre-populated with one complaint per peer so the steady-state maps are
// warm and allocs/op measures the hot path, not initial growth. Async
// backends drain in batches of 32.
func openComplaintStoreBench(b *testing.B, spec string, ids []trust.PeerID) complaints.Store {
	b.Helper()
	cfg := complaints.BackendConfig{}
	if base, _, _ := strings.Cut(spec, ":"); base == "async" {
		cfg.BatchSize = 32
	}
	store, err := complaints.Open(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range ids {
		if err := store.File(complaints.Complaint{From: p, About: ids[(i+1)%len(ids)]}); err != nil {
			b.Fatal(err)
		}
	}
	if f, ok := store.(complaints.Flusher); ok {
		if err := f.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

// complaintStoreBenchSpecs are the concurrency-safe reputation backends the
// store benchmarks compare (pgrid is single-threaded by design).
var complaintStoreBenchSpecs = []string{"memory", "sharded", "async:sharded"}

// BenchmarkComplaintStoreFile is the concurrent write path of the
// reputation data plane: parallel goroutines filing complaints into one
// shared store. On multi-core hosts the lock-striped ShardedStore scales
// where MemoryStore's single mutex serialises.
func BenchmarkComplaintStoreFile(b *testing.B) {
	ids := storePeers(512)
	for _, spec := range complaintStoreBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			store := openComplaintStoreBench(b, spec, ids)
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(ctr.Add(1))
					c := complaints.Complaint{From: ids[(i*7)%len(ids)], About: ids[(i*13+3)%len(ids)]}
					if err := store.File(c); err != nil {
						// b.Fatal must not run on RunParallel workers.
						b.Error(err)
						return
					}
				}
			})
			if f, ok := store.(complaints.Flusher); ok {
				if err := f.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComplaintStoreAssess is the read-dominated assessment path: one
// complaint-product read per op, the operation the trust-aware planner
// issues population-wide on every session. The sharded store serves it with
// a single combined lookup.
func BenchmarkComplaintStoreAssess(b *testing.B) {
	ids := storePeers(512)
	for _, spec := range complaintStoreBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			store := openComplaintStoreBench(b, spec, ids)
			assessor := complaints.Assessor{Store: store, Population: ids}
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(ctr.Add(1))
					if _, err := assessor.Product(ids[i%len(ids)]); err != nil {
						// b.Fatal must not run on RunParallel workers.
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBetaEstimate measures the direct-experience trust hot path.
func BenchmarkBetaEstimate(b *testing.B) {
	est := trust.NewBeta(trust.BetaConfig{})
	for i := 0; i < 100; i++ {
		est.Record("peer", trust.Outcome{Cooperated: i%3 != 0})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := est.Estimate("peer"); e.P <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkMuiEstimate measures the witness-pooled estimate of [3].
func BenchmarkMuiEstimate(b *testing.B) {
	net := mui.NewNetwork(mui.Config{MaxWitnesses: 16})
	rng := rand.New(rand.NewSource(1))
	ids := make([]trust.PeerID, 20)
	for i := range ids {
		ids[i] = trust.PeerID(fmt.Sprintf("w%d", i))
	}
	for _, a := range ids {
		for _, t := range ids {
			if a != t {
				net.Record(a, t, trust.Outcome{Cooperated: rng.Intn(4) != 0})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := net.Estimate(ids[0], ids[1]); e.P <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkMarketSession measures the end-to-end cost of one marketplace
// session (plan, execute over netsim, settle, feed reputation).
func BenchmarkMarketSession(b *testing.B) {
	agents, err := agent.NewPopulation(agent.PopConfig{Honest: 8, Opportunist: 2, Stake: 2 * goods.Unit},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := market.NewEngine(market.Config{Seed: int64(i), Sessions: 10, Agents: agents})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
