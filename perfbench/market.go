package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"trustcoop/internal/agent"
	"trustcoop/internal/core"
	"trustcoop/internal/decision"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
)

const (
	// marketConcurrency is the -scale shape: 256 sessions in flight.
	marketConcurrency = 256
	// marketWindow is the unit a market run is timed in: RunWindow starts
	// this many sessions and drives the clock until all have settled. A
	// window's host time per session is one sample of op_p50_us.
	marketWindow = 256
	// rssWindows is the fixed work after which peak_rss_mb is read.
	rssWindows = 128
)

// marketShape is one market workload.
type marketShape struct {
	agents    int
	strategy  market.Strategy
	setupReps int // set-ups per run; setup_s is their median
}

var (
	trustAwareShape = marketShape{agents: 10_000, strategy: market.StrategyTrustAware, setupReps: 21}
	naive1MShape    = marketShape{agents: 1_000_000, strategy: market.StrategyNaive, setupReps: 5}
)

func runMarketTrustAware(env *runEnv, rep *report) error {
	return runMarket(env, rep, trustAwareShape)
}

func runMarketNaive(env *runEnv, rep *report) error { return runMarket(env, rep, naive1MShape) }

// newPopulation builds the workload's agents: 80% honest, 20% opportunist,
// stake 0, risk-neutral.
func newPopulation(n int, seed int64) ([]*agent.Agent, error) {
	return agent.NewPopulation(agent.PopConfig{Honest: n - n/5, Opportunist: n / 5},
		rand.New(rand.NewSource(seed)))
}

// newMarketEngine builds an engine over pop with an unbounded session budget:
// runs are driven window by window and stop on the clock. repStore is
// "sharded", or "timed:sharded" for the traced run.
func newMarketEngine(shape marketShape, pop []*agent.Agent, seed int64, repStore string) (*market.Engine, error) {
	return market.NewEngine(market.Config{
		Seed:        seed,
		Sessions:    math.MaxInt32,
		Agents:      pop,
		Concurrency: marketConcurrency,
		Strategy:    shape.strategy,
		RepStore:    repStore,
	})
}

// drive runs windows until the run has lasted dur, or until it has run
// exactly windows windows when windows > 0. It returns each window's wall
// time in nanoseconds and the total.
func drive(eng *market.Engine, dur time.Duration, windows int) ([]int64, time.Duration, error) {
	var ws []int64
	start := time.Now()
	last := start
	for (windows > 0 && len(ws) < windows) || (windows == 0 && last.Sub(start) < dur) {
		if err := eng.RunWindow(marketWindow); err != nil {
			return nil, 0, err
		}
		now := time.Now()
		ws = append(ws, int64(now.Sub(last)))
		last = now
	}
	return ws, last.Sub(start), nil
}

// checkResult is the market's correctness check: every started session has
// exactly one outcome.
func checkResult(res market.Result, sessions int) error {
	if res.Sessions != sessions {
		return fmt.Errorf("result reports %d sessions, %d were run", res.Sessions, sessions)
	}
	if sum := res.Completed + res.Aborted + res.Defected + res.NoTrade; sum != res.Sessions {
		return fmt.Errorf("Sessions %d != Completed+Aborted+Defected+NoTrade %d", res.Sessions, sum)
	}
	return nil
}

func runMarket(env *runEnv, rep *report, shape marketShape) error {
	if env.traced {
		return runMarketTraced(env, rep, shape)
	}
	var pop []*agent.Agent
	var eng *market.Engine
	setup := make([]float64, shape.setupReps)
	for i := range setup {
		pop, eng = nil, nil
		runtime.GC()
		if i == len(setup)-1 {
			// The last set-up serves the run: peak_rss_mb covers it and the
			// run, not the discarded set-ups before it.
			if err := resetPeakRSS(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if pop, err = newPopulation(shape.agents, env.seed); err != nil {
			return err
		}
		if eng, err = newMarketEngine(shape, pop, env.seed, "sharded"); err != nil {
			return err
		}
		setup[i] = time.Since(start).Seconds()
	}
	runtime.GC()

	steal0, err := stealSeconds()
	if err != nil {
		return err
	}
	// Memory grows with the sessions run (the ledger keeps every outcome),
	// so peak_rss_mb is read after a fixed number of them, not at the end of
	// a run whose length depends on speed.
	ws, elapsed, err := drive(eng, 0, rssWindows)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	more, rest, err := drive(eng, env.seconds-elapsed, 0)
	if err != nil {
		return err
	}
	ws, elapsed = append(ws, more...), elapsed+rest
	steal1, err := stealSeconds()
	if err != nil {
		return err
	}
	sessions := len(ws) * marketWindow
	rep.attempted = int64(sessions)
	res, err := eng.FinishRun()
	if err == nil {
		err = checkResult(res, sessions)
	}
	if err != nil {
		rep.fail(int64(sessions), "%v", err)
	}
	perSession := make([]int64, len(ws))
	for i, w := range ws {
		perSession[i] = w / marketWindow
	}
	fmt.Fprintf(os.Stderr, "market: %d agents, %s, %d sessions in %d windows, %.2fs wall, %.2fs stolen per CPU\n",
		shape.agents, shape.strategy, sessions, len(ws), elapsed.Seconds(), steal1-steal0)
	rep.set("ops_per_s", float64(sessions)/ranSeconds(elapsed, steal1-steal0), sessions)
	rep.set("op_p50_us", percentile(perSession, 0.50)/1e3, len(ws))
	rep.set("setup_s", median(setup), len(setup))
	rep.set("peak_rss_mb", rss, 1)
	return nil
}

// pairStream reproduces the engine's pairing stream: one draw per session,
// in session-ID order.
func pairStream(seed int64, n int) func() (sup, con int) {
	rng := rand.New(rand.NewSource(seedmix.Derive(seed, 0)))
	return func() (int, int) {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		return i, j
	}
}

// policyCall is one ExposureLimit call the live engine made.
type policyCall struct {
	trust float64
	gain  goods.Money
	cap   goods.Money
}

// recordingPolicy logs every exposure decision of the agent it wraps. The
// engine never type-asserts a Policy, so wrapping changes no outcome.
type recordingPolicy struct {
	inner decision.Policy
	log   *[]policyCall
}

func (p recordingPolicy) ExposureLimit(t float64, gain goods.Money) goods.Money {
	c := p.inner.ExposureLimit(t, gain)
	*p.log = append(*p.log, policyCall{trust: t, gain: gain, cap: c})
	return c
}

func (p recordingPolicy) Name() string { return p.inner.Name() }

// constEstimator answers every trust query with one recorded value.
type constEstimator float64

func (c constEstimator) Record(trust.PeerID, trust.Outcome)   {}
func (c constEstimator) Estimate(trust.PeerID) trust.Estimate { return trust.Estimate{P: float64(c)} }
func (c constEstimator) Name() string                         { return "recorded" }

// tracedMarket is the outcome of one traced market run.
type tracedMarket struct {
	untimed, traced    market.Result
	sessions           int
	untimedNs, traceNs int64
	runtimeDelta       runtimeSample // over the untimed run
	events             int64
	store              *storeTimer
	replay             planReplay
}

// traceMarket runs the shape over pop three times for the same windows: a
// warm-up pass (for dur, or exactly windows when windows > 0), an untimed
// pass, and a pass with every agent's Policy recorded and the complaint
// store timed. The warm-up absorbs the heap growth a process's first run
// pays, which would otherwise read as negative tracing overhead. It then
// replays each session's planning from outside the engine.
func traceMarket(shape marketShape, pop []*agent.Agent, seed int64, dur time.Duration, windows int) (*tracedMarket, error) {
	out := &tracedMarket{}
	warm, err := newMarketEngine(shape, pop, seed, "sharded")
	if err != nil {
		return nil, err
	}
	ws, _, err := drive(warm, dur, windows)
	if err != nil {
		return nil, err
	}
	if _, err := warm.FinishRun(); err != nil {
		return nil, err
	}
	eng, err := newMarketEngine(shape, pop, seed, "sharded")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before := readRuntime()
	ws, elapsed, err := drive(eng, 0, len(ws))
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	out.runtimeDelta = runtimeSample{
		allocs:     after.allocs - before.allocs,
		allocBytes: after.allocBytes - before.allocBytes,
		gcCPU:      after.gcCPU - before.gcCPU,
		userCPU:    after.userCPU - before.userCPU,
	}
	out.untimedNs = int64(elapsed)
	out.sessions = len(ws) * marketWindow
	if out.untimed, err = eng.FinishRun(); err != nil {
		return nil, err
	}

	var calls []policyCall
	orig := make([]decision.Policy, len(pop))
	for i, a := range pop {
		orig[i] = a.Policy
		a.Policy = recordingPolicy{inner: a.Policy, log: &calls}
	}
	restore := func() {
		for i, a := range pop {
			a.Policy = orig[i]
		}
	}
	defer restore()
	teng, err := newMarketEngine(shape, pop, seed, "timed:sharded")
	if err != nil {
		return nil, err
	}
	if out.store, err = timerOf(teng.RepStore()); err != nil {
		return nil, err
	}
	runtime.GC()
	_, elapsed, err = drive(teng, 0, len(ws))
	if err != nil {
		return nil, err
	}
	out.traceNs = int64(elapsed)
	if out.traced, err = teng.FinishRun(); err != nil {
		return nil, err
	}
	out.events = teng.EventsExecuted()
	if !reflect.DeepEqual(out.untimed, out.traced) {
		return out, fmt.Errorf("traced run diverged from the untimed run: %+v vs %+v", out.traced, out.untimed)
	}
	restore()
	out.replay, err = replayPlanning(shape, pop, seed, out.sessions, calls, out.traced)
	return out, err
}

func runMarketTraced(env *runEnv, rep *report, shape marketShape) error {
	pop, err := newPopulation(shape.agents, env.seed)
	if err != nil {
		return err
	}
	tm, err := traceMarket(shape, pop, env.seed, env.seconds/3, 0)
	if tm != nil {
		rep.attempted = int64(tm.sessions)
	}
	if err == nil {
		err = checkResult(tm.traced, tm.sessions)
	}
	if err != nil {
		if tm == nil {
			return err
		}
		rep.fail(int64(tm.sessions), "%v", err)
		return nil
	}
	s := float64(tm.sessions)
	r := tm.replay
	st := tm.store
	fmt.Fprintf(os.Stderr, "market traced: %d sessions, untimed %.2fs, traced %.2fs\n",
		tm.sessions, float64(tm.untimedNs)/1e9, float64(tm.traceNs)/1e9)

	rep.set("core.plan_p50_ns", percentile(r.planNs, 0.50), len(r.planNs))
	rep.set("core.plan_p99_ns", percentile(r.planNs, 0.99), len(r.planNs))
	rep.set("core.no_agreement_frac", frac(float64(r.noAgreement), float64(len(r.planNs))), len(r.planNs))
	rep.set("exchange.schedule_p50_ns", percentile(r.scheduleNs, 0.50), len(r.scheduleNs))
	rep.set("exchange.schedule_p99_ns", percentile(r.scheduleNs, 0.99), len(r.scheduleNs))
	rep.set("exchange.calls_per_plan", frac(float64(len(r.scheduleNs)), float64(len(r.planNs))), len(r.planNs))
	rep.set("exchange.infeasible_frac", frac(float64(r.infeasible), float64(len(r.scheduleNs))), len(r.scheduleNs))
	rep.set("exchange.allocs_per_call", r.allocsPerCall, len(r.scheduleNs))
	rep.set("market.session_seed_p50_ns", percentile(r.seedNs, 0.50), len(r.seedNs))
	rep.set("goods.generate_p50_ns", percentile(r.generateNs, 0.50), len(r.generateNs))
	seen := st.fileNs.Load() + st.readNs.Load() + sum(r.seedNs) + sum(r.generateNs) + sum(r.planNs)
	rep.set("market.self_ns_per_session", float64(tm.traceNs-seen)/s, tm.sessions)
	rep.set("netsim.events_per_session", float64(tm.events)/s, tm.sessions)
	rep.set("netsim.messages_per_session", float64(tm.traced.NetStats.Sent)/s, tm.sessions)
	rep.set("complaints.file_calls_per_session", float64(st.fileCalls.Load())/s, tm.sessions)
	rep.set("complaints.file_mean_ns", frac(float64(st.fileNs.Load()), float64(st.fileCalls.Load())), int(st.fileCalls.Load()))
	rep.set("complaints.read_calls_per_session", float64(st.readCalls.Load())/s, tm.sessions)
	rep.set("complaints.read_mean_ns", frac(float64(st.readNs.Load()), float64(st.readCalls.Load())), int(st.readCalls.Load()))
	rd := tm.runtimeDelta
	rep.set("runtime.allocs_per_session", rd.allocs/s, tm.sessions)
	rep.set("runtime.alloc_bytes_per_session", rd.allocBytes/s, tm.sessions)
	rep.set("runtime.gc_cpu_frac", frac(rd.gcCPU, rd.gcCPU+rd.userCPU), 1)
	rep.set("trace.overhead_frac", float64(tm.traceNs)/float64(tm.untimedNs)-1, 1)
	return nil
}

// planReplay holds the per-call timings of the planning replay.
type planReplay struct {
	seedNs, generateNs []int64 // per session
	planNs             []int64 // per core.PlanExchange call (trust-aware only)
	scheduleNs         []int64 // per exchange scheduler call
	noAgreement        int
	safe               int
	infeasible         int // scheduler calls that found no sequence
	allocsPerCall      float64
}

// scheduleCall is one exchange scheduler call of the planner, kept so the
// allocation pass can repeat it.
type scheduleCall struct {
	terms exchange.Terms
	bands exchange.Bands // combined-band calls
	caps  exchange.ExposureCaps
	kind  int // 0 safe, 1 combined, 2 trust-aware
}

func (c scheduleCall) run(stakes exchange.Stakes) error {
	var err error
	switch c.kind {
	case 0:
		_, err = exchange.ScheduleSafe(c.terms, stakes, exchange.Options{})
	case 1:
		_, err = exchange.Schedule(c.terms, c.bands, exchange.Options{})
	default:
		_, err = exchange.ScheduleTrustAware(c.terms, c.caps, exchange.Options{})
	}
	return err
}

func infeasible(err error) bool {
	return errors.Is(err, exchange.ErrNoSafeSequence) || errors.Is(err, exchange.ErrNoFeasibleSequence) ||
		errors.Is(err, exchange.ErrBudgetExhausted)
}

// replayPlanning regenerates every session's inputs exactly as the engine
// drew them — the pairing stream, then each session's seedmix stream for its
// bundle — and re-runs the planning on them with the trust values the live
// run's policies saw. It times seeding, bundle generation, core planning and
// each exchange scheduler call, and fails unless the replay reproduces the
// live run's plan modes, no-trade count and exposure caps exactly.
func replayPlanning(shape marketShape, pop []*agent.Agent, seed int64, sessions int,
	calls []policyCall, live market.Result) (planReplay, error) {
	var r planReplay
	gen := goods.DefaultGenConfig()
	planner := core.Planner{RequireBeneficial: true}
	pair := pairStream(seed, len(pop))
	var sched []scheduleCall
	var stakes []exchange.Stakes
	timeCall := func(c scheduleCall, st exchange.Stakes) error {
		start := time.Now()
		err := c.run(st)
		r.scheduleNs = append(r.scheduleNs, int64(time.Since(start)))
		sched = append(sched, c)
		stakes = append(stakes, st)
		if infeasible(err) {
			r.infeasible++
		}
		return err
	}
	next := 0 // next unconsumed policy call
	for id := 0; id < sessions; id++ {
		start := time.Now()
		srng := rand.New(rand.NewSource(seedmix.Derive(seed, uint64(id)+1)))
		r.seedNs = append(r.seedNs, int64(time.Since(start)))
		si, ci := pair()
		sup, con := pop[si], pop[ci]
		start = time.Now()
		bundle, err := goods.Generate(gen, srng)
		r.generateNs = append(r.generateNs, int64(time.Since(start)))
		if err != nil {
			return r, err
		}
		if shape.strategy != market.StrategyTrustAware {
			continue
		}
		terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
		st := exchange.Stakes{Supplier: sup.Stake, Consumer: con.Stake}

		// The planner's path, call by call: beneficial terms, a fully safe
		// schedule, else caps from trust, the combined band, the pure
		// exposure band.
		mode := core.Mode(0)
		var caps exchange.ExposureCaps
		var pInSupplier, pInConsumer float64
		if terms.SupplierGain() >= 0 && terms.ConsumerGain() >= 0 {
			err := timeCall(scheduleCall{terms: terms}, st)
			switch {
			case err == nil:
				mode = core.ModeSafe
			case !infeasible(err):
				return r, err
			default:
				if next+2 > len(calls) {
					return r, fmt.Errorf("session %d: live run made no exposure decision here", id)
				}
				sc, cc := calls[next], calls[next+1]
				next += 2
				if sc.gain != terms.SupplierGain() || cc.gain != terms.ConsumerGain() {
					return r, fmt.Errorf("session %d: regenerated terms differ from the live run's", id)
				}
				pInConsumer, pInSupplier = sc.trust, cc.trust
				caps = exchange.ExposureCaps{
					Supplier: sup.Policy.ExposureLimit(pInConsumer, terms.SupplierGain()),
					Consumer: con.Policy.ExposureLimit(pInSupplier, terms.ConsumerGain()),
				}
				if caps.Supplier != sc.cap || caps.Consumer != cc.cap {
					return r, fmt.Errorf("session %d: replayed caps %+v differ from live %v/%v", id, caps, sc.cap, cc.cap)
				}
				err = timeCall(scheduleCall{terms: terms, kind: 1, bands: exchange.CombinedBands(st, caps)}, st)
				if infeasible(err) {
					err = timeCall(scheduleCall{terms: terms, kind: 2, caps: caps}, st)
				}
				if err == nil {
					mode = core.ModeTrustAware
				} else if !infeasible(err) {
					return r, err
				}
			}
		}

		start = time.Now()
		res, err := planner.PlanExchange(
			core.Participant{ID: sup.ID, Estimator: constEstimator(pInConsumer), Policy: sup.Policy, Stake: sup.Stake},
			core.Participant{ID: con.ID, Estimator: constEstimator(pInSupplier), Policy: con.Policy, Stake: con.Stake},
			terms)
		r.planNs = append(r.planNs, int64(time.Since(start)))
		switch {
		case errors.Is(err, core.ErrNoAgreement):
			r.noAgreement++
			if mode != 0 {
				return r, fmt.Errorf("session %d: planner found no agreement, scheduler replay found %v", id, mode)
			}
		case err != nil:
			return r, err
		default:
			if res.Mode != mode {
				return r, fmt.Errorf("session %d: planner mode %v, scheduler replay %v", id, res.Mode, mode)
			}
			if mode == core.ModeSafe {
				r.safe++
			} else if res.Caps != caps {
				return r, fmt.Errorf("session %d: planner caps %+v, live caps %+v", id, res.Caps, caps)
			}
		}
	}
	if next != len(calls) {
		return r, fmt.Errorf("replay consumed %d of the live run's %d exposure decisions", next, len(calls))
	}
	if shape.strategy == market.StrategyTrustAware && (r.safe != live.ModeSafe || r.noAgreement != live.NoTrade) {
		return r, fmt.Errorf("replay planned %d safe / %d no-trade sessions, live run %d / %d",
			r.safe, r.noAgreement, live.ModeSafe, live.NoTrade)
	}

	// Allocations per scheduler call, from a second pass over the same inputs
	// with nothing else allocating in between.
	if len(sched) > 0 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i, c := range sched {
			_ = c.run(stakes[i]) // outcomes were checked on the timed pass
		}
		runtime.ReadMemStats(&m1)
		r.allocsPerCall = float64(m1.Mallocs-m0.Mallocs) / float64(len(sched))
	}
	return r, nil
}
