package market

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/trust"
)

// agentsWithIDs is a population of bare agents with the given IDs.
func agentsWithIDs(ids []trust.PeerID) []*agent.Agent {
	agents := make([]*agent.Agent, len(ids))
	for i, id := range ids {
		agents[i] = &agent.Agent{ID: id}
	}
	return agents
}

// firstDuplicateReference is the duplicate-ID check as the engine did it with
// its ID→index map: one pass in index order, a set of the IDs seen so far.
func firstDuplicateReference(ids []trust.PeerID) int {
	seen := make(map[trust.PeerID]struct{}, len(ids))
	for i, id := range ids {
		if _, dup := seen[id]; dup {
			return i
		}
		seen[id] = struct{}{}
	}
	return -1
}

func TestNewEngineRejectsDuplicateID(t *testing.T) {
	long := strings.Repeat("peer-with-a-long-shared-prefix/", 40)
	for _, c := range []struct {
		name string
		ids  []trust.PeerID
		dup  trust.PeerID // "" with ok means no duplicate
		ok   bool
	}{
		{"distinct", []trust.PeerID{"a", "b", "c"}, "", true},
		{"first and last", []trust.PeerID{"a", "b", "c", "d", "a"}, "a", false},
		{"adjacent", []trust.PeerID{"a", "b", "b"}, "b", false},
		{"first repeat wins", []trust.PeerID{"x", "y", "y", "x"}, "y", false},
		{"first repeat wins, interleaved", []trust.PeerID{"x", "y", "x", "y"}, "x", false},
		{"thrice", []trust.PeerID{"z", "a", "z", "z"}, "z", false},
		{"empty ID", []trust.PeerID{"", "a", ""}, "", false},
		{"empty ID once", []trust.PeerID{"", "a"}, "", true},
		{"length only", []trust.PeerID{"a", "aa", "aaa", "aa"}, "aa", false},
		{"length only, distinct", []trust.PeerID{"a", "aa", "aaa", "aaaa"}, "", true},
		{"long prefixes", []trust.PeerID{trust.PeerID(long + "1"), trust.PeerID(long + "2"), trust.PeerID(long), trust.PeerID(long + "2")}, trust.PeerID(long + "2"), false},
		{"long prefixes, distinct", []trust.PeerID{trust.PeerID(long + "1"), trust.PeerID(long + "2"), trust.PeerID(long)}, "", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewEngine(Config{Seed: 1, Sessions: 1, Agents: agentsWithIDs(c.ids)})
			if c.ok {
				if err != nil {
					t.Fatalf("distinct IDs rejected: %v", err)
				}
				return
			}
			want := fmt.Sprintf("market: duplicate agent ID %q", c.dup)
			if err == nil || err.Error() != want {
				t.Fatalf("error %v, want %q", err, want)
			}
		})
	}
}

// firstDuplicateCounted runs firstDuplicate over ids and counts the IDs it
// reads: one per ID it hashes, two per pair of IDs it compares.
func firstDuplicateCounted(ids []trust.PeerID) (at, reads int) {
	at = firstDuplicate(len(ids), func(i int) trust.PeerID {
		reads++
		return ids[i]
	})
	return at, reads
}

// TestFirstDuplicateMatchesMap checks the table probe against a map. First
// on random ID lists: IDs from a small alphabet of varied lengths, so some
// lists repeat early, some late and some never, and the lists span several
// table sizes. Then at the edges of a slot's packing: n = 2ᵏ−1, 2ᵏ and 2ᵏ+1
// for k = 1…17, where the index's bits.Len(n) low bits grow by one, each
// with no duplicate, with index 1 repeating index 0 and with the last index
// repeating the one before it, whose index+1 needs every index bit. Last,
// above 2²⁰ agents, where a tag has 11 bits and thousands of tags collide,
// with a duplicate at the end. Where a list repeats at most once, the probe
// must compare IDs only on a tag match: the duplicate's one comparison and
// at most n/64 more.
func TestFirstDuplicateMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := range 1000 {
		n := rng.Intn(300)
		universe := 1 + rng.Intn(4*n+1) // IDs 0…universe-1, so repeats are likely but not certain
		ids := make([]trust.PeerID, n)
		for i := range ids {
			k := rng.Intn(universe)
			ids[i] = trust.PeerID(strings.Repeat("p", k%7) + fmt.Sprint(k))
		}
		got, _ := firstDuplicateCounted(ids)
		if want := firstDuplicateReference(ids); got != want {
			t.Fatalf("trial %d: first duplicate at %d, map says %d (ids %q)", trial, got, want, ids)
		}
	}

	distinct := make([]trust.PeerID, 1<<20+1)
	for i := range distinct {
		distinct[i] = trust.PeerID("agent" + strconv.Itoa(i))
	}
	check := func(ids []trust.PeerID, label string) {
		t.Helper()
		got, reads := firstDuplicateCounted(ids)
		if want := firstDuplicateReference(ids); got != want {
			t.Fatalf("n=%d, %s: first duplicate at %d, map says %d", len(ids), label, got, want)
		}
		if compared := (reads - len(ids)) / 2; compared > 1+len(ids)/64 {
			t.Fatalf("n=%d, %s: %d ID comparisons, want at most %d", len(ids), label, compared, 1+len(ids)/64)
		}
	}
	var sizes []int
	for k := 1; k <= 17; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range sizes {
		ids := slices.Clone(distinct[:n])
		check(ids, "no duplicate")
		if n < 2 {
			continue
		}
		ids[1] = ids[0]
		check(ids, "index 1 repeats index 0")
		ids[1] = distinct[1]
		ids[n-1] = ids[n-2]
		check(ids, "last index repeats the one before")
	}
	distinct[len(distinct)-1] = distinct[len(distinct)/2]
	check(distinct, "late duplicate above 2²⁰ agents")
}

// setupConfig is perfbench market-naive-1m's engine over pop: naive plans,
// the sharded complaint store, 256 sessions in flight, an unbounded budget.
func setupConfig(pop []*agent.Agent) Config {
	return Config{Seed: 1, Sessions: math.MaxInt32, Agents: pop, Concurrency: 256, Strategy: StrategyNaive, RepStore: "sharded"}
}

// TestNewEngineAllocs pins NewEngine's allocations to one constant at 10³ and
// 10⁵ agents: the engine keeps no per-agent map, its per-agent slices are one
// allocation each whatever the population size, and a RepStore engine builds
// neither a per-agent estimator slice nor a factory for one (32 allocations
// while it did). The assessor's population is a view: the closure that lists
// the IDs on a scan replaced the copy of them, one allocation for another.
func TestNewEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const want = 30
	for _, n := range []int{1_000, 100_000} {
		pop, err := agent.NewPopulation(agent.PopConfig{Honest: n - n/5, Opportunist: n / 5}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(3, func() {
			if _, err := NewEngine(setupConfig(pop)); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%d agents: %v allocations per call, want %d", n, got, want)
		}
	}
}

// TestNewEngineBytesPerAgent pins the bytes NewEngine allocates per agent
// at 10⁵ agents (naive, sharded), from the collector's TotalAlloc: the
// duplicate-ID table's 4-byte slots, 2¹⁸ of them here (10.49 B/agent), and
// at most 1 B/agent of fixed cost beside them. An engine that copied the
// population's IDs (16 B/agent) or used 8-byte slots would fail it.
func TestNewEngineBytesPerAgent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, slots = 100_000, 1 << 18
	pop, err := agent.NewPopulation(agent.PopConfig{Honest: n - n/5, Opportunist: n / 5}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewEngine(setupConfig(pop)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	want := float64(4*slots)/n + 1
	if got := float64(after.TotalAlloc-before.TotalAlloc) / n; got > want {
		t.Errorf("NewEngine allocated %.2f B/agent at %d agents, want at most %.2f", got, n, want)
	}
}

// benchAgents is perfbench market-naive-1m's population size.
const benchAgents = 1_000_000

// benchPopulation builds perfbench market-naive-1m's population: 80% honest,
// 20% opportunist.
func benchPopulation(b *testing.B) []*agent.Agent {
	pop, err := agent.NewPopulation(agent.PopConfig{Honest: benchAgents - benchAgents/5, Opportunist: benchAgents / 5},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return pop
}

// BenchmarkMarketSetup splits a million-agent marketplace's set-up into its
// two layers, built the way perfbench's market-naive-1m builds them: the
// population (80% honest, 20% opportunist) and the engine over it (naive,
// sharded complaint store, 256 sessions in flight).
func BenchmarkMarketSetup(b *testing.B) {
	perAgent := func(b *testing.B, run func()) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for range b.N {
			run()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchAgents, "ns/agent")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/benchAgents, "B/agent")
	}
	b.Run("population", func(b *testing.B) {
		perAgent(b, func() { benchPopulation(b) })
	})
	b.Run("engine", func(b *testing.B) {
		pop := benchPopulation(b)
		perAgent(b, func() {
			if _, err := NewEngine(setupConfig(pop)); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkMarketSessions times the session path of perfbench's
// market-naive-1m once set-up is done: one engine over the million agents
// (naive, sharded complaint store, 256 sessions in flight) runs a fixed
// number of 256-session windows per op. It reports ns, bytes and allocations
// per session, and the collector's share of the CPU time the runtime
// accounts for (/cpu/classes/gc/total over /cpu/classes/total, which counts
// idle processors too).
func BenchmarkMarketSessions(b *testing.B) {
	const window, windows = 256, 1000
	eng, err := NewEngine(setupConfig(benchPopulation(b)))
	if err != nil {
		b.Fatal(err)
	}
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var before, after runtime.MemStats
	runtime.GC() // the set-up's garbage is not the session path's
	runtime.ReadMemStats(&before)
	metrics.Read(cpu)
	gc0, total0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()
	b.ResetTimer()
	for range b.N {
		for range windows {
			if err := eng.RunWindow(window); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	metrics.Read(cpu)
	sessions := float64(b.N * windows * window)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sessions, "ns/session")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/sessions, "B/session")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/sessions, "allocs/session")
	b.ReportMetric((cpu[0].Value.Float64()-gc0)/(cpu[1].Value.Float64()-total0), "gc-cpu-frac")
}
