package main

import (
	"testing"

	"trustcoop/internal/market"
)

// TestTracedRunMatchesUntimed pins that tracing observes without changing:
// the traced market run returns a Result identical to the untimed run of the
// same seed (counts, welfare, trade volume, losses, NetStats — traceMarket
// compares the whole Result), and the planning replay reproduces the live
// run's plan modes, no-trade count and exposure caps exactly.
func TestTracedRunMatchesUntimed(t *testing.T) {
	for _, shape := range []marketShape{
		{agents: 300, strategy: market.StrategyTrustAware},
		{agents: 300, strategy: market.StrategyNaive},
	} {
		t.Run(shape.strategy.String(), func(t *testing.T) {
			pop, err := newPopulation(shape.agents, 7)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := traceMarket(shape, pop, 7, 0, 6)
			if err != nil {
				t.Fatal(err)
			}
			if tm.sessions != 6*marketWindow || tm.traced.Sessions != tm.sessions {
				t.Fatalf("ran %d sessions, result has %d", tm.sessions, tm.traced.Sessions)
			}
			if err := checkResult(tm.traced, tm.sessions); err != nil {
				t.Fatal(err)
			}
			r := tm.replay
			if len(r.seedNs) != tm.sessions || len(r.generateNs) != tm.sessions {
				t.Fatalf("replay timed %d seeds and %d bundles for %d sessions", len(r.seedNs), len(r.generateNs), tm.sessions)
			}
			if shape.strategy == market.StrategyTrustAware {
				if len(r.planNs) != tm.sessions || r.safe != tm.traced.ModeSafe || r.noAgreement != tm.traced.NoTrade {
					t.Fatalf("replay planned %d sessions (%d safe, %d no-trade), live %d (%d, %d)",
						len(r.planNs), r.safe, r.noAgreement, tm.sessions, tm.traced.ModeSafe, tm.traced.NoTrade)
				}
				if tm.store.readCalls.Load() == 0 {
					t.Fatal("traced trust-aware run read nothing through the timed store")
				}
			} else if len(r.planNs) != 0 || len(r.scheduleNs) != 0 {
				t.Fatalf("naive replay planned %d sessions, scheduled %d; the engine plans neither", len(r.planNs), len(r.scheduleNs))
			}
		})
	}
}

// TestReplayDetectsDivergentCaps checks the replay's cap comparison has
// teeth: a live decision log whose cap differs by one unit is refused.
func TestReplayDetectsDivergentCaps(t *testing.T) {
	shape := marketShape{agents: 300, strategy: market.StrategyTrustAware}
	pop, err := newPopulation(shape.agents, 7)
	if err != nil {
		t.Fatal(err)
	}
	var calls []policyCall
	for _, a := range pop {
		a.Policy = recordingPolicy{inner: a.Policy, log: &calls}
	}
	eng, err := newMarketEngine(shape, pop, 7, "sharded")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := drive(eng, 0, 2); err != nil {
		t.Fatal(err)
	}
	res, err := eng.FinishRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range pop {
		a.Policy = a.Policy.(recordingPolicy).inner
	}
	if len(calls) == 0 {
		t.Fatal("no exposure decisions recorded")
	}
	if _, err := replayPlanning(shape, pop, 7, res.Sessions, calls, res); err != nil {
		t.Fatalf("faithful log: %v", err)
	}
	calls[len(calls)-1].cap++
	if _, err := replayPlanning(shape, pop, 7, res.Sessions, calls, res); err == nil {
		t.Fatal("replay accepted a decision log with a divergent cap")
	}
}
