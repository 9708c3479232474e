package market

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/netsim"
)

// TestSessionStreamRecyclingPinned: a finished session's stream is reseeded
// for a later session, so any draw from it after finish would shift that
// later session. The run below has every way a session ends — completion,
// defection, timeout after a dropped message, and NoTrade (whose stream is
// returned at once) — and latencies beyond the per-step timeout budget, so
// step messages still arrive for sessions that already finished. Its Result
// must equal, digest for digest, the run of the engine that built every
// session a fresh math/rand source.
func TestSessionStreamRecyclingPinned(t *testing.T) {
	for _, tc := range []struct {
		strategy Strategy
		digest   string
	}{
		{StrategyNaive, "8fa957f7a374f702cb81287ee5c87264d9ca5104228bec44cd188e19436ba331"},
		{StrategyTrustAware, "42db57cf927891407d01e3f721d975083520f55e2aaa5602ae6195394c3856fc"},
	} {
		eng, err := NewEngine(Config{
			Seed:        31,
			Sessions:    400,
			Concurrency: 16,
			Agents:      population(t, agent.PopConfig{Honest: 8, Opportunist: 6, Random: 2, Stake: goods.Unit}, 29),
			Strategy:    tc.strategy,
			RepStore:    "sharded",
			Gen:         goods.GenConfig{Items: 6, Dist: goods.Uniform, MeanCost: 10 * goods.Unit, MarginMin: 0.2, MarginMax: 0.6, NegFraction: 0.3},
			DropRate:    0.02,
			Latency:     netsim.UniformLatency{Min: 1, Max: 90},
		})
		if err != nil {
			t.Fatal(err)
		}
		late := 0
		eng.net.SetDefaultHandler(func(from netsim.NodeID, msg netsim.Message) {
			if m, ok := msg.(stepMsg); ok {
				if _, live := eng.sessions[m.sessionID]; !live {
					late++
				}
			}
			eng.handle(from, msg)
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if late == 0 || res.NoTrade == 0 || res.Aborted == 0 || res.Defected == 0 || res.Completed == 0 || res.NetStats.Dropped == 0 {
			t.Fatalf("%v: run does not exercise every session ending (late deliveries %d): %+v", tc.strategy, late, res)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))); got != tc.digest {
			t.Errorf("%v: result digest %s, want %s\n%+v", tc.strategy, got, tc.digest, res)
		}
	}
}

// TestSessionAllocsSteadyState pins what a session allocates once the
// engine is warm. Building each session a fresh math/rand source cost 27
// allocations per completed naive session; recycling the streams removes
// the source and the Rand wrapper.
func TestSessionAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the count is only meaningful unraced")
	}
	eng, err := NewEngine(Config{
		Seed: 31, Sessions: 1 << 20, Concurrency: 16, Strategy: StrategyNaive, RepStore: "sharded",
		Agents: population(t, agent.PopConfig{Honest: 16, Stake: goods.Unit}, 29),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunWindow(2000); err != nil {
		t.Fatal(err)
	}
	const window = 500
	allocs := testing.AllocsPerRun(10, func() {
		if err := eng.RunWindow(window); err != nil {
			t.Fatal(err)
		}
	})
	if got := math.Round(allocs / window); got != 25 {
		t.Errorf("%.3f allocs per session in steady state, want 25", allocs/window)
	}
}
