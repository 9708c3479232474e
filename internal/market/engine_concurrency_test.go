package market

import (
	"slices"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/reputation"
	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
)

func TestPickPairErrorsOnTinyPopulation(t *testing.T) {
	// NewEngine rejects populations under 2, so exercise pickPair directly
	// against an engine whose population has been truncated.
	agents := population(t, agent.PopConfig{Honest: 2}, 1)
	eng, err := NewEngine(Config{Seed: 1, Sessions: 1, Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1} {
		eng.agents = agents[:n]
		if _, _, err := eng.pickPair(); err == nil {
			t.Errorf("pickPair with %d agents did not error", n)
		}
	}
	eng.agents = agents
	sup, con, err := eng.pickPair()
	if err != nil {
		t.Fatalf("pickPair with 2 agents: %v", err)
	}
	if sup == con || sup < 0 || con < 0 || sup >= len(agents) || con >= len(agents) {
		t.Errorf("pickPair returned indices %d, %d; want two distinct agents", sup, con)
	}
}

// TestPairingMatchesStream: session k's parties are the k-th pair of the
// pairing stream, drawn as perfbench's replay draws it (in session-ID
// order, one Intn for the supplier and one for the consumer over the rest),
// whether the engine runs whole or window by window. The windows and the
// session budget end partway through the engine's batches of pairBatch
// pairs, so a batch drawn ahead must neither skip nor repeat a pair.
func TestPairingMatchesStream(t *testing.T) {
	const seed, sessions = 7, 12*pairBatch + 11
	pop := population(t, agent.PopConfig{Honest: 30, Opportunist: 20}, 3)
	rng := seedmix.NewRand(seedmix.Derive(seed, 0))
	want := make([][2]trust.PeerID, sessions)
	for k := range want {
		i := rng.Intn(len(pop))
		j := rng.Intn(len(pop) - 1)
		if j >= i {
			j++
		}
		want[k] = [2]trust.PeerID{pop[i].ID, pop[j].ID}
	}
	for _, window := range []int{0, 37, 5} {
		eng, err := NewEngine(Config{Seed: seed, Sessions: sessions, Concurrency: 16, Agents: pop})
		if err != nil {
			t.Fatal(err)
		}
		for window > 0 && eng.nextID < sessions {
			if err := eng.RunWindow(window); err != nil {
				t.Fatal(err)
			}
		}
		if window == 0 {
			_, err = eng.Run()
		} else {
			_, err = eng.FinishRun()
		}
		if err != nil {
			t.Fatal(err)
		}
		events := eng.Ledger().Events()
		if len(events) != sessions {
			t.Fatalf("window %d: %d events for %d sessions, every one of which trades", window, len(events), sessions)
		}
		slices.SortFunc(events, func(a, b reputation.Event) int { return a.Round - b.Round })
		for k, ev := range events {
			if ev.Round != k {
				t.Fatalf("window %d: event %d in round order has round %d", window, k, ev.Round)
			}
			if got := [2]trust.PeerID{ev.Supplier, ev.Consumer}; got != want[k] {
				t.Fatalf("window %d: session %d paired %v, the pairing stream draws %v", window, k, got, want[k])
			}
		}
	}
}

// exactFields projects a Result onto its interleaving-independent fields:
// integer counters, exact Money sums, and the order-independent sample
// statistics (counts and maxima). Welford means are excluded because
// float summation order differs across concurrency levels.
type exactFields struct {
	NoTrade, Completed, Defected, Aborted int
	Welfare, TradeVolume, HonestLoss      goods.Money
	ModeSafe                              int
	ExpoN, RealN                          int
	RealConsumerMax, RealSupplierMax      float64
	Sent, Delivered, Dropped              int
	Defections                            map[string]int
}

func project(r Result) exactFields {
	return exactFields{
		NoTrade: r.NoTrade, Completed: r.Completed, Defected: r.Defected, Aborted: r.Aborted,
		Welfare: r.Welfare, TradeVolume: r.TradeVolume, HonestLoss: r.HonestVictimLoss,
		ModeSafe: r.ModeSafe,
		ExpoN:    r.ConsumerExposure.Count(), RealN: r.RealizedConsumerLoss.Count(),
		RealConsumerMax: r.RealizedConsumerLoss.Max(), RealSupplierMax: r.RealizedSupplierLoss.Max(),
		Sent: r.NetStats.Sent, Delivered: r.NetStats.Delivered, Dropped: r.NetStats.Dropped,
		Defections: r.DefectionsBy,
	}
}

func sameFields(t *testing.T, label string, a, b exactFields) {
	t.Helper()
	if a.NoTrade != b.NoTrade || a.Completed != b.Completed || a.Defected != b.Defected ||
		a.Aborted != b.Aborted || a.Welfare != b.Welfare || a.TradeVolume != b.TradeVolume ||
		a.HonestLoss != b.HonestLoss || a.ModeSafe != b.ModeSafe || a.ExpoN != b.ExpoN ||
		a.RealN != b.RealN || a.RealConsumerMax != b.RealConsumerMax ||
		a.RealSupplierMax != b.RealSupplierMax || a.Sent != b.Sent ||
		a.Delivered != b.Delivered || a.Dropped != b.Dropped {
		t.Errorf("%s: results diverged:\n%+v\nvs\n%+v", label, a, b)
	}
	if len(a.Defections) != len(b.Defections) {
		t.Errorf("%s: defection attribution diverged: %v vs %v", label, a.Defections, b.Defections)
	}
	for name, n := range a.Defections {
		if b.Defections[name] != n {
			t.Errorf("%s: defections by %s: %d vs %d", label, name, n, b.Defections[name])
		}
	}
}

// TestConcurrencyInvariantResults checks the engine's core concurrency
// guarantee: a session's fate is decided by its own seeded random stream, so
// for every strategy whose planning does not read learned trust, the run
// aggregate is identical whether sessions execute one at a time or massively
// interleaved on the virtual clock.
func TestConcurrencyInvariantResults(t *testing.T) {
	mkPop := func() []*agent.Agent {
		return population(t, agent.PopConfig{Honest: 5, Opportunist: 2, Random: 2,
			Backstabber: 1, Stake: 3 * goods.Unit}, 71)
	}
	oracle := func(agents []*agent.Agent) func(trust.PeerID) trust.Estimator {
		o := &trust.Oracle{Truth: map[trust.PeerID]float64{}, Prior: 0.8}
		for _, a := range agents {
			o.Truth[a.ID] = trueHonesty(a)
		}
		return func(trust.PeerID) trust.Estimator { return o }
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"naive", func() Config {
			return Config{Seed: 101, Sessions: 120, Agents: mkPop(), Strategy: StrategyNaive, DropRate: 0.05}
		}},
		{"safe-only", func() Config {
			return Config{Seed: 103, Sessions: 120, Agents: mkPop(), Strategy: StrategySafeOnly, DropRate: 0.05}
		}},
		{"trust-aware-oracle", func() Config {
			agents := mkPop()
			return Config{Seed: 107, Sessions: 120, Agents: agents, Strategy: StrategyTrustAware,
				DropRate: 0.05, EstimatorOf: oracle(agents)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base exactFields
			for i, conc := range []int{1, 4, 32} {
				cfg := tc.cfg()
				cfg.Concurrency = conc
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Completed + res.Defected + res.Aborted + res.NoTrade; got != res.Sessions {
					t.Fatalf("concurrency=%d: outcome partition %d != sessions %d", conc, got, res.Sessions)
				}
				f := project(res)
				if i == 0 {
					base = f
					if f.Completed == 0 {
						t.Fatal("degenerate baseline: nothing completed")
					}
					continue
				}
				sameFields(t, tc.name, base, f)
			}
		})
	}
}

// TestConcurrentRunReproducible checks exact reproducibility for a fixed
// (seed, concurrency) even with online trust learning, where concurrency
// legitimately changes the information structure.
func TestConcurrentRunReproducible(t *testing.T) {
	run := func() Result {
		agents := population(t, agent.PopConfig{Honest: 5, Opportunist: 3, Stake: 0,
			OpportunistThreshold: 2 * goods.Unit}, 83)
		eng, err := NewEngine(Config{Seed: 109, Sessions: 150, Agents: agents,
			Strategy: StrategyTrustAware, Concurrency: 8, DropRate: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Defected != b.Defected || a.Aborted != b.Aborted ||
		a.NoTrade != b.NoTrade || a.Welfare != b.Welfare || a.TradeVolume != b.TradeVolume {
		t.Errorf("fixed (seed, concurrency) runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSessionsActuallyOverlap drives the engine's internals far enough to
// observe the concurrency window filling: with Concurrency=8 the live-session
// table must hold several sessions at once after the initial fill.
func TestSessionsActuallyOverlap(t *testing.T) {
	agents := population(t, agent.PopConfig{Honest: 10, Stake: 50 * goods.Unit}, 91)
	eng, err := NewEngine(Config{Seed: 113, Sessions: 40, Agents: agents, Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng.fill()
	if live := eng.live; live < 2 {
		t.Fatalf("after fill, %d live sessions; want several (concurrency 8)", live)
	}
	eng.sim.Run()
	if live := eng.live; live != 0 {
		t.Errorf("%d sessions still live after the event queue drained", live)
	}
	if eng.nextID != 40 {
		t.Errorf("started %d sessions, want 40", eng.nextID)
	}
}

// TestConcurrencyWithLearningChangesInformationOnly sanity-checks the
// documented semantics: with learning estimators, concurrency may change
// results (staler trust at planning time) but must preserve the accounting
// identities and produce a healthy marketplace.
func TestConcurrencyWithLearningChangesInformationOnly(t *testing.T) {
	for _, conc := range []int{1, 16} {
		agents := population(t, agent.PopConfig{Honest: 6, Opportunist: 2, Stake: 0}, 97)
		eng, err := NewEngine(Config{Seed: 127, Sessions: 200, Agents: agents,
			Strategy: StrategyTrustAware, Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Completed + res.Defected + res.Aborted + res.NoTrade; got != res.Sessions {
			t.Errorf("concurrency=%d: outcome partition %d != sessions %d", conc, got, res.Sessions)
		}
		if res.Completed == 0 {
			t.Errorf("concurrency=%d: nothing completed", conc)
		}
	}
}

// TestDeterministicPairStream pins the property the concurrency guarantee
// rests on: pairing draws come from a dedicated stream in session-ID order,
// so the pair picked for session k does not depend on the concurrency window.
func TestDeterministicPairStream(t *testing.T) {
	pairs := func(conc int) []trust.PeerID {
		agents := population(t, agent.PopConfig{Honest: 8, Stake: 50 * goods.Unit}, 131)
		eng, err := NewEngine(Config{Seed: 137, Sessions: 30, Agents: agents, Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		events := eng.Ledger().Events()
		out := make([]trust.PeerID, 0, 2*len(events))
		byRound := make(map[int]trust.PeerID, len(events))
		for _, ev := range events {
			byRound[ev.Round] = ev.Supplier + "/" + ev.Consumer
		}
		for i := 0; i < 30; i++ {
			out = append(out, byRound[i])
		}
		return out
	}
	a, b := pairs(1), pairs(8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("session %d paired %q at conc=1 but %q at conc=8", i, a[i], b[i])
		}
	}
}
