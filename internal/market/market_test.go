package market

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

func population(t *testing.T, cfg agent.PopConfig, seed int64) []*agent.Agent {
	t.Helper()
	agents, err := agent.NewPopulation(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return agents
}

// trueHonesty is the ground-truth cooperation probability of a's behaviour,
// for oracle estimators: honest 1.0; rational 0.9 (kept honest by stakes in
// well-designed exchanges); random 1−P per step; backstabber 0.15;
// opportunist 0.25.
func trueHonesty(a *agent.Agent) float64 {
	switch b := a.Behavior.(type) {
	case agent.Honest:
		return 1
	case agent.Rational:
		return 0.9
	case agent.RandomDefector:
		return 1 - b.P
	case agent.Backstabber:
		return 0.15
	case agent.Opportunist:
		return 0.25
	default:
		panic(fmt.Sprintf("no ground truth for behaviour %T", b))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{Sessions: 1}); err == nil {
		t.Error("empty population accepted")
	}
	agents := population(t, agent.PopConfig{Honest: 2}, 1)
	if _, err := NewEngine(Config{Agents: agents}); err == nil {
		t.Error("zero sessions accepted")
	}
	dup := []*agent.Agent{agents[0], agents[0]}
	if _, err := NewEngine(Config{Agents: dup, Sessions: 1}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	for _, drop := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := NewEngine(Config{Agents: agents, Sessions: 1, DropRate: drop}); err == nil {
			t.Errorf("drop rate %v accepted", drop)
		}
	}
	for _, drop := range []float64{0, 1} {
		if _, err := NewEngine(Config{Agents: agents, Sessions: 1, DropRate: drop}); err != nil {
			t.Errorf("drop rate %v rejected: %v", drop, err)
		}
	}
}

func TestHonestPopulationCompletesEverything(t *testing.T) {
	agents := population(t, agent.PopConfig{Honest: 10, Stake: 50 * goods.Unit}, 2)
	eng, err := NewEngine(Config{Seed: 3, Sessions: 60, Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Defected != 0 {
		t.Errorf("honest population defected %d times", res.Defected)
	}
	if res.Completed == 0 {
		t.Fatal("no exchange completed")
	}
	if res.Welfare <= 0 {
		t.Errorf("welfare = %v, want positive", res.Welfare)
	}
	if res.CompletionRate() != 1 {
		t.Errorf("completion rate = %g, want 1", res.CompletionRate())
	}
	if res.Sessions != 60 || res.Completed+res.NoTrade+res.Aborted != 60 {
		t.Errorf("session accounting off: %+v", res)
	}
}

func TestSafeOnlyNeverLosesButTradesLess(t *testing.T) {
	// Stakes below the typical minimal Δ: safe-only must refuse most trades.
	mk := func(strategy Strategy) Result {
		agents := population(t, agent.PopConfig{Honest: 4, Backstabber: 4, Stake: goods.Unit}, 5)
		eng, err := NewEngine(Config{Seed: 7, Sessions: 80, Agents: agents, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	safe := mk(StrategySafeOnly)
	naive := mk(StrategyNaive)
	if safe.TradeRate() >= naive.TradeRate() {
		t.Errorf("safe-only trade rate %g should be below naive %g", safe.TradeRate(), naive.TradeRate())
	}
	if naive.Defected == 0 {
		t.Error("naive strategy with backstabbers should see defections")
	}
	if naive.HonestVictimLoss <= 0 {
		t.Error("naive strategy should cost honest victims money")
	}
}

func TestTrustAwareLearnsToAvoidCheaters(t *testing.T) {
	// Repeat offenders (opportunists defect whenever the immediate gain
	// clears a small threshold) must end up distrusted by the honest
	// population, while honest agents keep trusting each other.
	agents := population(t, agent.PopConfig{Honest: 4, Opportunist: 2, Stake: 0,
		OpportunistThreshold: 2 * goods.Unit}, 9)
	eng, err := NewEngine(Config{Seed: 11, Sessions: 500, Agents: agents, Strategy: StrategyTrustAware})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Defected == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	var trustInCheaters, trustInHonest []float64
	for i, observer := range agents {
		if observer.Behavior.Name() != "honest" {
			continue
		}
		est := eng.estimatorAt(int32(i), observer.ID)
		for _, other := range agents {
			if other.ID == observer.ID {
				continue
			}
			e := est.Estimate(other.ID)
			if e.Samples == 0 {
				continue
			}
			if other.Behavior.Name() == "opportunist" {
				trustInCheaters = append(trustInCheaters, e.P)
			} else {
				trustInHonest = append(trustInHonest, e.P)
			}
		}
	}
	if len(trustInCheaters) == 0 || len(trustInHonest) == 0 {
		t.Fatal("no learned estimates")
	}
	meanCheater := mean(trustInCheaters)
	meanHonest := mean(trustInHonest)
	if meanCheater >= meanHonest-0.15 {
		t.Errorf("trust in cheaters %.2f not clearly below trust in honest %.2f", meanCheater, meanHonest)
	}
	// Learned distrust caps the damage: realized losses stay within the
	// planned exposure caps, which shrink with trust.
	var earlyLoss, lateLoss goods.Money
	var earlyN, lateN int
	for _, e := range eng.Ledger().Events() {
		loss := e.SupplierLoss + e.ConsumerLoss
		if e.Round < 125 {
			earlyLoss += loss
			earlyN++
		} else if e.Round >= 375 {
			lateLoss += loss
			lateN++
		}
	}
	early := earlyLoss.Float64() / float64(earlyN)
	late := lateLoss.Float64() / float64(lateN)
	if late > early {
		t.Errorf("late loss/session %.2f above early %.2f — learning had no effect", late, early)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestMessageLossAbortsSessions(t *testing.T) {
	agents := population(t, agent.PopConfig{Honest: 6, Stake: 50 * goods.Unit}, 13)
	eng, err := NewEngine(Config{Seed: 17, Sessions: 80, Agents: agents, DropRate: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted == 0 {
		t.Error("8% message loss produced no aborts")
	}
	if res.NetStats.Dropped == 0 {
		t.Error("network counted no drops")
	}
	if res.Defected != 0 {
		t.Error("aborts misclassified as defections")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		agents := population(t, agent.PopConfig{Honest: 4, Random: 2, Stake: 5 * goods.Unit}, 19)
		eng, err := NewEngine(Config{Seed: 23, Sessions: 50, Agents: agents, DropRate: 0.05})
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
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestNaiveAccountingIdentities(t *testing.T) {
	agents := population(t, agent.PopConfig{Honest: 3, Opportunist: 3}, 29)
	eng, err := NewEngine(Config{Seed: 31, Sessions: 100, Agents: agents, Strategy: StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Completed + res.Defected + res.Aborted + res.NoTrade; got != res.Sessions {
		t.Errorf("outcome partition %d != sessions %d", got, res.Sessions)
	}
	// Defections must be attributed to a behaviour.
	total := 0
	for name, n := range res.DefectionsBy {
		if name == "honest" && n > 0 {
			t.Errorf("honest agents recorded %d defections", n)
		}
		total += n
	}
	if total != res.Defected {
		t.Errorf("defection attribution %d != %d", total, res.Defected)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyNaive.String() != "naive" || StrategySafeOnly.String() != "safe-only" || StrategyTrustAware.String() != "trust-aware" {
		t.Error("strategy labels")
	}
}

func TestCustomEstimatorWiring(t *testing.T) {
	agents := population(t, agent.PopConfig{Honest: 3, Stake: 20 * goods.Unit}, 37)
	oracle := &trust.Oracle{Truth: map[trust.PeerID]float64{}, Prior: 0.9}
	for _, a := range agents {
		oracle.Truth[a.ID] = trueHonesty(a)
	}
	eng, err := NewEngine(Config{
		Seed: 41, Sessions: 20, Agents: agents,
		EstimatorOf: func(trust.PeerID) trust.Estimator { return oracle },
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.estimatorAt(0, agents[0].ID) != oracle {
		t.Fatal("estimator not wired")
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// naivePlanReference is naivePlan as it was built before it was made at its
// final length: a one-step pay literal grown by append, one delivery at a
// time.
func naivePlanReference(terms exchange.Terms) exchange.Sequence {
	seq := exchange.Sequence{{Kind: exchange.StepPay, Amount: terms.Price}}
	if terms.Price == 0 {
		seq = nil
	}
	for _, it := range terms.Bundle.Items {
		seq = append(seq, exchange.Step{Kind: exchange.StepDeliver, Item: it})
	}
	return seq
}

// planSink keeps the plans the allocation count makes from being optimised
// away.
var planSink exchange.Sequence

// TestNaivePlanMatchesReference checks naivePlan against the append-built
// reference over random bundles of 1–24 items, a fifth of them one-item and
// a quarter of them at price 0, plus the empty bundle. Into a nil buffer it
// must give the same steps with no spare capacity in one allocation per
// plan (none for an empty one); into a recycled buffer with room, left
// dirty by a longer plan, the same steps in that buffer with none.
func TestNaivePlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	terms := []exchange.Terms{{}, {Price: goods.Unit}}
	for range 500 {
		gen := goods.DefaultGenConfig()
		gen.Items = 1 + rng.Intn(24)
		if rng.Intn(5) == 0 {
			gen.Items = 1
		}
		bundle, err := goods.Generate(gen, rng)
		if err != nil {
			t.Fatal(err)
		}
		price := bundle.PriceAt(rng.Float64())
		if rng.Intn(4) == 0 {
			price = 0
		}
		terms = append(terms, exchange.Terms{Bundle: bundle, Price: price})
	}
	recycled := naivePlan(nil, exchange.Terms{Bundle: goods.Bundle{Items: make([]goods.Item, 24)}, Price: goods.Unit})
	for i, tm := range terms {
		got, want := naivePlan(nil, tm), naivePlanReference(tm)
		if !slices.Equal(got, want) {
			t.Fatalf("terms %d (price %v, %d items): plan %v, reference %v", i, tm.Price, len(tm.Bundle.Items), got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("terms %d: plan of %d steps has capacity %d", i, len(got), cap(got))
		}
		into := naivePlan(recycled, tm)
		if !slices.Equal(into, want) {
			t.Fatalf("terms %d (price %v, %d items): plan into a recycled buffer %v, reference %v", i, tm.Price, len(tm.Bundle.Items), into, want)
		}
		if cap(into) != cap(recycled) || (len(into) > 0 && &into[0] != &recycled[0]) {
			t.Errorf("terms %d: a plan of %d steps did not reuse the buffer of capacity %d", i, len(into), cap(recycled))
		}
		if raceEnabled {
			continue // the race detector's instrumentation allocates
		}
		wantAllocs := 1.0
		if len(want) == 0 {
			wantAllocs = 0
		}
		if allocs := testing.AllocsPerRun(10, func() { planSink = naivePlan(nil, tm) }); allocs != wantAllocs {
			t.Errorf("terms %d (%d steps): %v allocations per plan into a nil buffer, want %v", i, len(want), allocs, wantAllocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { planSink = naivePlan(recycled, tm) }); allocs != 0 {
			t.Errorf("terms %d (%d steps): %v allocations per plan into a recycled buffer, want 0", i, len(want), allocs)
		}
	}
}
