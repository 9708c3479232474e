package market

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/netsim"
)

// TestSessionStreamRecyclingPinned: a finished session's stream is reseeded
// for a later session and its plan's backing array rewritten by a later
// naive plan, so any draw from the stream or read of the plan after finish
// would shift that later session. The run below has every way a session
// ends — completion, defection, timeout after a dropped message, and
// NoTrade (whose stream and plan buffer are returned at once) — and latencies
// beyond the per-step timeout budget, so step messages still arrive for
// sessions that already finished, which must hold neither stream nor plan.
// Its Result must equal, digest for digest, the run of the engine that
// built every session a fresh math/rand source, bundle and plan. The
// outcome log of the same run, and of the run driven window by window, is
// pinned the same way. The safe-only digests were computed before bundles
// and plans were recycled, at a stake that lets a safe sequence exist for
// some sessions and not others.
func TestSessionStreamRecyclingPinned(t *testing.T) {
	for _, tc := range []struct {
		strategy             Strategy
		stake                goods.Money
		digest               string
		events, windowEvents string
	}{
		{StrategyNaive, goods.Unit, "8fa957f7a374f702cb81287ee5c87264d9ca5104228bec44cd188e19436ba331",
			"a22569be69eae8b1895c8270afac6d052d84b2d0a8e92b7488b38a7ae8e2c958",
			"b36a7a9989c0fe98834257c5be86e2cbfdc22f34fb06d511b2d3769c07d0abdc"},
		{StrategyTrustAware, goods.Unit, "42db57cf927891407d01e3f721d975083520f55e2aaa5602ae6195394c3856fc",
			"ce5835bf6124d413710b1083da9559a1da8ad054f35e644f618c2fe608744e98",
			"f2ada3304dd0802a2e05571b8caee6e75614f0fceb857205554d92fd0dc81f89"},
		{StrategySafeOnly, 3 * goods.Unit, "6b8fa12e3efda0141eb7438aaabdafb2200c3627b0baee4f1512cab53143d2b2",
			"563cd1d8f4bc56ffcb842a2e78f8f1cc99c41461653fd0c5b905557dc27589a6",
			"572bc97321e239cead68cc9154d94f94cba3c4ad55bd4483d298dfae5bec3f08"},
	} {
		eng := pinnedEngine(t, tc.strategy, tc.stake)
		late := 0
		eng.sim.SetHandler(func(msg netsim.Message) {
			if s, ok := msg.(*session); ok && s.done {
				late++
				if s.rng != nil || s.steps != nil {
					t.Errorf("%v: session %d, delivered late, still holds its stream or plan", tc.strategy, s.id)
				}
			}
			eng.handle(msg)
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if late == 0 || res.NoTrade == 0 || res.Aborted == 0 || res.Defected == 0 || res.Completed == 0 || res.NetStats.Dropped == 0 {
			t.Fatalf("%v: run does not exercise every session ending (late deliveries %d): %+v", tc.strategy, late, res)
		}
		if got := digest(res); got != tc.digest {
			t.Errorf("%v: result digest %s, want %s\n%+v", tc.strategy, got, tc.digest, res)
		}
		if got := checkOutcomeLog(t, eng, res); got != tc.events {
			t.Errorf("%v: outcome log digest %s, want %s", tc.strategy, got, tc.events)
		}

		eng = pinnedEngine(t, tc.strategy, tc.stake)
		for eng.nextID < eng.cfg.Sessions {
			if err := eng.RunWindow(37); err != nil {
				t.Fatal(err)
			}
		}
		if res, err = eng.FinishRun(); err != nil {
			t.Fatal(err)
		}
		if got := checkOutcomeLog(t, eng, res); got != tc.windowEvents {
			t.Errorf("%v: windowed outcome log digest %s, want %s", tc.strategy, got, tc.windowEvents)
		}
	}
}

// pinnedEngine builds TestSessionStreamRecyclingPinned's engine.
func pinnedEngine(t *testing.T, strategy Strategy, stake goods.Money) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{
		Seed:        31,
		Sessions:    400,
		Concurrency: 16,
		Agents:      population(t, agent.PopConfig{Honest: 8, Opportunist: 6, Random: 2, Stake: stake}, 29),
		Strategy:    strategy,
		RepStore:    "sharded",
		Gen:         goods.GenConfig{Items: 6, Dist: goods.Uniform, MeanCost: 10 * goods.Unit, MarginMin: 0.2, MarginMax: 0.6, NegFraction: 0.3},
		DropRate:    0.02,
		Latency:     netsim.UniformLatency{Min: 1, Max: 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// checkOutcomeLog cross-checks a finished run's outcome log against its
// Result — one event per traded session, one outcome kind each, every
// defector a party of its session, the defected sessions' losses summing
// (in finish order) to the realised-loss samples — and returns its digest.
func checkOutcomeLog(t *testing.T, eng *Engine, res Result) string {
	t.Helper()
	events := eng.Ledger().Events()
	if len(events) != res.Sessions-res.NoTrade {
		t.Errorf("%d events for %d traded sessions", len(events), res.Sessions-res.NoTrade)
	}
	var completed, aborted, defected int
	var conLoss, supLoss float64
	for _, ev := range events {
		switch {
		case ev.Completed && !ev.Aborted && ev.DefectedBy == "":
			completed++
		case ev.Aborted && !ev.Completed && ev.DefectedBy == "":
			aborted++
		case !ev.Completed && !ev.Aborted && (ev.DefectedBy == ev.Supplier || ev.DefectedBy == ev.Consumer):
			defected++
			conLoss += ev.ConsumerLoss.Float64()
			supLoss += ev.SupplierLoss.Float64()
		default:
			t.Errorf("event is not exactly one outcome with a party at fault: %+v", ev)
		}
	}
	if completed != res.Completed || aborted != res.Aborted || defected != res.Defected {
		t.Errorf("log has %d completed, %d aborted, %d defected; result %d, %d, %d",
			completed, aborted, defected, res.Completed, res.Aborted, res.Defected)
	}
	if conLoss != res.RealizedConsumerLoss.Sum() || supLoss != res.RealizedSupplierLoss.Sum() {
		t.Errorf("defected losses sum to %v/%v in the log, %v/%v in the result",
			conLoss, supLoss, res.RealizedConsumerLoss.Sum(), res.RealizedSupplierLoss.Sum())
	}
	return digest(events)
}

func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))
}

// TestSessionAllocsSteadyState pins what a session allocates once the
// engine is warm, in count and in bytes. Building each session a fresh
// math/rand source cost 27 allocations per completed naive session;
// recycling the streams removes the source and the Rand wrapper (25).
// Generating item IDs from a table instead of formatting them, and
// validating the generated bundle only where the scheduler must, took the
// naive session to 17 and the trust-aware one to 15.5. Sending the session
// itself as the step message, where a boxed step struct cost one allocation
// per message, and logging outcomes into pointer-free chunks, where the
// growing []Event reallocated as it grew, took them to 8 and 5. Handing the
// failed safe attempt to the trust-aware one inside
// exchange.ScheduleSafeElse, instead of returning the heap-built
// ErrNoSafeSequence error for the planner to test, took the trust-aware
// session to 4. Queueing the session's timeout as a typed timer, where a
// closure cost one allocation per session, took them to 7 and 3. Making the
// naive plan at its final length, where append grew it from a one-step
// literal in four more allocations, took the naive session to 3: the
// session, its bundle's items and its plan (914 B naive, 992 B
// trust-aware). Drawing every bundle into one engine-owned buffer and
// writing each naive plan into a finished session's took them to 1 and 2:
// the session, and the trust-aware plan the scheduler allocates (784 B
// trust-aware). Having the scheduler write the trust-aware plan into a
// finished session's too, through core.Planner.PlanExchangeInto, took the
// trust-aware session to 1, and exchange.ScheduleSafeInto took the
// safe-only one from 1.654 to 1. Every byte bound sits just above what a
// naive or trust-aware session costs today (258 B, on amd64, with the
// session in the 192 B size class; a safe-only one costs 131 B): a bundle
// allocated again costs 256 B, a plan 448 B (naive) or about 520 B
// (trust-aware), and a session that carries its planner's PlanResult again
// moves to the 416 B class.
// The trust-aware pin covers the planning path: every session here fails
// the safe band at a one-unit stake and plans under exposure caps. The
// safe-only pin runs at a three-unit stake, where the safe band schedules
// plans. Counts are pinned to a tenth; repeated runs differ by a few
// thousandths.
func TestSessionAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the count is only meaningful unraced")
	}
	for _, tc := range []struct {
		strategy Strategy
		stake    goods.Money
		want     float64
		maxBytes float64
	}{
		{StrategyNaive, goods.Unit, 1, 300},
		{StrategyTrustAware, goods.Unit, 1, 300},
		{StrategySafeOnly, 3 * goods.Unit, 1, 300},
	} {
		eng, err := NewEngine(Config{
			Seed: 31, Sessions: 1 << 20, Concurrency: 16, Strategy: tc.strategy, RepStore: "sharded",
			Agents: population(t, agent.PopConfig{Honest: 16, Stake: tc.stake}, 29),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunWindow(2000); err != nil {
			t.Fatal(err)
		}
		const window, runs = 500, 10
		allocs := testing.AllocsPerRun(runs, func() {
			if err := eng.RunWindow(window); err != nil {
				t.Fatal(err)
			}
		})
		if got := math.Round(allocs/window*10) / 10; got != tc.want {
			t.Errorf("%v: %.3f allocs per session in steady state, want %v", tc.strategy, allocs/window, tc.want)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if err := eng.RunWindow(window); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.TotalAlloc-before.TotalAlloc) / (runs * window); got > tc.maxBytes {
			t.Errorf("%v: %.0f bytes allocated per session in steady state, want at most %v", tc.strategy, got, tc.maxBytes)
		} else {
			t.Logf("%v: %.0f bytes allocated per session", tc.strategy, got)
		}
	}
}

// TestOutcomeRecordHoldsNoPointers: the outcome log stays out of the
// collector's scans only while outcome holds nothing it must trace.
func TestOutcomeRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v, which the collector must scan", path, typ.Kind())
		}
	}
	walk("outcome", reflect.TypeOf(outcome{}))
}

// TestOutcomeLogChunks: appends fill fixed-size chunks in order, a full
// chunk is never copied, and Ledger replays the log in append order across
// chunk boundaries.
func TestOutcomeLogChunks(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 1, Sessions: 1, Agents: population(t, agent.PopConfig{Honest: 2}, 1)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2*outcomeChunk + 5
	var first *outcome
	for i := 0; i < n; i++ {
		eng.outcomes.append(outcome{round: i, sup: int32(i % 2), con: int32(1 - i%2), kind: outcomeKind(i % 4)})
		if i == outcomeChunk-1 {
			first = &eng.outcomes.chunks[0][0]
		}
	}
	if first != &eng.outcomes.chunks[0][0] {
		t.Error("the full first chunk was copied by a later append")
	}
	if got := len(eng.outcomes.chunks); got != 3 {
		t.Fatalf("%d chunks for %d outcomes, want 3", got, n)
	}
	for k, c := range eng.outcomes.chunks[:2] {
		if len(c) != outcomeChunk {
			t.Errorf("chunk %d holds %d outcomes, want %d", k, len(c), outcomeChunk)
		}
	}
	events := eng.Ledger().Events()
	if len(events) != n {
		t.Fatalf("Ledger has %d events, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Round != i {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
	}
}
