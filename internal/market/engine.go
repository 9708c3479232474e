package market

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"trustcoop/internal/agent"
	"trustcoop/internal/core"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/netsim"
	"trustcoop/internal/reputation"
	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// Engine runs marketplace sessions over a simulated network. Create with
// NewEngine, drive with Run.
//
// Up to Config.Concurrency sessions are live at once, interleaved on the
// virtual clock: step messages carry their session ID and are routed through
// the live-session table, so one engine models a marketplace where many
// exchanges are in flight simultaneously. All randomness that decides a
// session's fate (its bundle, its defection rolls, its message loss and
// latency) comes from a per-session stream derived from Config.Seed and the
// session ID, and pairing draws from a dedicated stream in session-ID order —
// so a run is exactly reproducible for a fixed (Seed, Concurrency), and
// session outcomes do not depend on how sessions happen to interleave.
//
// Concurrency does change the information structure when trust is learned
// online (StrategyTrustAware with recording estimators): a session planned
// while its predecessors are still in flight sees staler trust than it would
// sequentially, exactly as real overlapping exchanges would. With strategies
// that never consult learned trust (naive, safe-only) or with static
// estimators, results are identical across Concurrency settings.
type Engine struct {
	cfg     Config
	pairRng *rand.Rand // pairing stream; drawn in session-ID order
	sim     *netsim.Simulator
	net     *netsim.Network
	ledger  *reputation.Ledger

	// Per-agent state is indexed, not mapped: one ID→index table replaces
	// the three per-agent maps (agent, node, estimator) the engine used to
	// build eagerly — at 10⁶ agents those maps and their method-value
	// handler registrations were most of the engine's footprint. The node ID
	// of agents[i] is simply NodeID(i), and estimators are created lazily on
	// first use (every estimator kind is order-independent, so laziness
	// cannot change results — most of a million agents are never paired).
	agents      []*agent.Agent
	index       map[trust.PeerID]int32
	ests        []trust.Estimator // lazily filled; index-aligned with agents
	estimatorOf func(trust.PeerID) trust.Estimator
	repStore    complaints.Store // engine-owned store from Config.RepStore; nil otherwise

	// population and assessor are the reusable complaint-assessment state
	// (RepStore mode only): one ID slice and one assessor built at
	// construction, shared by every per-agent estimator — the per-decision
	// path allocates nothing, and the assessor carries the shared
	// average-product cache that makes trust reads O(1) (complaints.Aggregator
	// backends) or one-scan-per-write-burst (generation-counting backends).
	population []trust.PeerID
	assessor   complaints.Assessor

	sessions map[int]*session // live sessions by ID
	nextID   int              // next session to start
	limit    int              // sessions allowed to start (window budget)
	rngs     []*rand.Rand     // finished sessions' streams, reseeded by startSession
	windowed bool             // RunWindow drives the budget (gossip mode)
	finished bool             // FinishRun has settled the engine
	runErr   error            // first error raised inside the event loop
	result   Result
}

// stepMsg carries one executed exchange step from the acting party to its
// counterpart.
type stepMsg struct {
	sessionID int
	stepIndex int
}

// session is the live state of one exchange. The parties' node IDs are
// cached at start (they are just the agents' population indices), so the
// per-step hot path never needs an ID→node lookup.
type session struct {
	id      int
	rng     *rand.Rand // per-session stream: bundle, defections, network draws; nil once finished
	sup     *agent.Agent
	con     *agent.Agent
	supNode netsim.NodeID
	conNode netsim.NodeID
	terms   exchange.Terms
	steps   exchange.Sequence
	planned core.PlanResult
	idx     int // next step to perform
	m       goods.Money
	cd, wd  goods.Money
	done    bool
}

// NewEngine validates cfg and assembles the marketplace.
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		pairRng:  seedmix.NewRand(seedmix.Derive(cfg.Seed, 0)),
		sim:      netsim.NewSimulator(cfg.Seed + 1),
		ledger:   &reputation.Ledger{},
		agents:   cfg.Agents,
		index:    make(map[trust.PeerID]int32, len(cfg.Agents)),
		ests:     make([]trust.Estimator, len(cfg.Agents)),
		sessions: make(map[int]*session, cfg.Concurrency),
		limit:    cfg.Sessions, // full-run budget; RunWindow switches to incremental
	}
	e.net = netsim.NewNetwork(e.sim, cfg.Latency)
	e.net.SetDropRate(cfg.DropRate)
	e.result.DefectionsBy = make(map[string]int)

	estimatorOf := cfg.EstimatorOf
	if cfg.RepStore != "" {
		bc := cfg.RepStoreConfig
		if bc.Seed == 0 {
			bc.Seed = cfg.Seed
		}
		store, err := complaints.Open(cfg.RepStore, bc)
		if err != nil {
			return nil, fmt.Errorf("market: reputation store: %w", err)
		}
		if cfg.GossipNode != nil {
			// The gossip endpoint wraps the backend: local complaints still
			// land on this shard's store immediately, and are buffered for
			// the cell's next exchange; remote batches arrive through the
			// store's batched write path. Everything below (estimators,
			// assessor, post-run reads) goes through the node.
			cfg.GossipNode.Attach(store)
			store = cfg.GossipNode
		}
		e.repStore = store
		e.population = make([]trust.PeerID, len(cfg.Agents))
		for i, a := range cfg.Agents {
			e.population[i] = a.ID
		}
		e.assessor = complaints.NewAssessor(store, e.population)
		estimatorOf = func(id trust.PeerID) trust.Estimator {
			return &complaints.Estimator{Assessor: e.assessor, Observer: id}
		}
	}
	if cfg.Evidence == trust.EvidencePosterior && cfg.GossipNode != nil {
		// The shard's per-agent Beta estimators live in the gossip node's
		// book: records land locally at once and are buffered as posterior
		// deltas for the cell's next exchange; remote deltas merge in with
		// decay compensation. This is the path that lets estimator-backed
		// cells shard — same fabric, different evidence kind.
		book := cfg.GossipNode.AttachBook(cfg.Beta)
		estimatorOf = book.Estimator
	}
	if estimatorOf == nil {
		// Private per-agent Beta estimators — both the historical default
		// and the standalone Evidence = posterior wiring (Config.Beta is
		// the zero value unless set, so the paths are byte-identical).
		bcfg := cfg.Beta
		estimatorOf = func(trust.PeerID) trust.Estimator { return trust.NewBeta(bcfg) }
	}

	e.estimatorOf = estimatorOf

	for i, a := range cfg.Agents {
		if _, dup := e.index[a.ID]; dup {
			return nil, fmt.Errorf("market: duplicate agent ID %q", a.ID)
		}
		e.index[a.ID] = int32(i)
	}
	// Every agent shares one dispatch function, so the network's default
	// handler stands in for a million Register calls (each of which would
	// allocate a method value and a map entry).
	e.net.SetDefaultHandler(e.handle)
	return e, nil
}

// estimatorAt returns (creating on first use) the estimator of agents[i].
func (e *Engine) estimatorAt(i int32) trust.Estimator {
	if e.ests[i] == nil {
		e.ests[i] = e.estimatorOf(e.agents[i].ID)
	}
	return e.ests[i]
}

// agentByID resolves an ID to its agent, or nil for unknown IDs.
func (e *Engine) agentByID(id trust.PeerID) *agent.Agent {
	i, ok := e.index[id]
	if !ok {
		return nil
	}
	return e.agents[i]
}

// Ledger exposes the outcome log (for learning-curve analyses). With
// Concurrency > 1 events append in session *finish* order; every event still
// carries its session ID in Round.
func (e *Engine) Ledger() *reputation.Ledger { return e.ledger }

// EstimatorOf exposes an agent's trust view (for accuracy metrics). Unknown
// IDs report nil; a known agent's estimator is created on first access.
func (e *Engine) EstimatorOf(id trust.PeerID) trust.Estimator {
	i, ok := e.index[id]
	if !ok {
		return nil
	}
	return e.estimatorAt(i)
}

// EventsExecuted reports the number of simulator events the engine has run —
// the denominator of the scale benchmark's events/sec.
func (e *Engine) EventsExecuted() int64 { return e.sim.Executed() }

// RepStore exposes the engine-owned complaint store built from
// Config.RepStore, for post-run assessment and pipeline statistics. It is
// nil when the config wired estimators itself.
func (e *Engine) RepStore() complaints.Store { return e.repStore }

// Run executes the configured number of sessions and returns the aggregate
// result. Up to Config.Concurrency sessions are in flight at any moment on
// the virtual clock; each finishing session backfills the freed slot.
//
// With Config.Gossip enabled the engine emits sync points: sessions run in
// windows of Gossip.Period, and each window boundary is a point where the
// cell's exchange fabric may ship evidence between shards. Run drives the
// windows itself only in the degenerate standalone case; a sharded cell's
// coordinator (eval.RunCell) drives them explicitly through RunWindow +
// FinishRun so it can interleave Fabric.Exchange calls between windows
// without blocking engine goroutines on a barrier. With gossip disabled the
// execution below is byte-identical to the pre-gossip engine.
func (e *Engine) Run() (Result, error) {
	if e.cfg.Gossip.Enabled() && e.cfg.GossipNode != nil {
		// Standalone windowed run (no coordinator): the sync points exist
		// but nothing exchanges at them. eval.RunCell never takes this path.
		for e.nextID < e.cfg.Sessions && e.runErr == nil {
			if err := e.RunWindow(e.cfg.Gossip.Period); err != nil {
				break
			}
		}
		return e.FinishRun()
	}
	e.fill()
	e.sim.Run(0)
	return e.FinishRun()
}

// RunWindow starts up to n further sessions and drives the virtual clock
// until every started session has settled, without finalising the run — one
// gossip window. The engine's own state (trust, reputation store, network
// stats, virtual clock) carries over to the next window. Returns the first
// run error; the aggregate Result comes from FinishRun.
func (e *Engine) RunWindow(n int) error {
	if e.finished {
		return errors.New("market: RunWindow after FinishRun")
	}
	if n <= 0 {
		return fmt.Errorf("market: window must be positive, have %d", n)
	}
	if !e.windowed {
		// First window: switch from the full-run budget (the default, so
		// the plain Run path and internal callers need no setup) to the
		// incremental one.
		e.windowed = true
		e.limit = 0
	}
	e.limit += n
	if e.limit > e.cfg.Sessions {
		e.limit = e.cfg.Sessions
	}
	e.fill()
	e.sim.Run(0)
	return e.runErr
}

// FinishRun settles any surviving sessions, drains the reputation store and
// returns the aggregate result — the tail of Run, exposed so a lockstep
// coordinator can close a windowed run.
func (e *Engine) FinishRun() (Result, error) {
	if e.finished {
		return Result{}, errors.New("market: FinishRun called twice")
	}
	e.finished = true
	// A partial windowed run reports only the sessions that actually
	// started: counting the never-started remainder would inflate
	// TradeRate and break Sessions == sum of outcome counts.
	started := e.nextID
	// Defensive: per-session timeouts guarantee the event queue drains with
	// no session live; if one somehow survives (or the run failed mid-way),
	// settle it deterministically. The simulator is drained here, so starting
	// more sessions would schedule events that never run — mark the run
	// exhausted before settling so the finish → fill backfill stays a no-op.
	e.nextID = e.cfg.Sessions
	e.limit = e.cfg.Sessions
	for _, id := range slices.Sorted(maps.Keys(e.sessions)) {
		e.finish(e.sessions[id], reputation.Event{Aborted: true})
	}
	// Drain a write-behind reputation store so post-run assessments (and the
	// final table rows) see every complaint the run filed.
	if f, ok := e.repStore.(complaints.Flusher); ok {
		if err := f.Flush(); err != nil && e.runErr == nil {
			e.runErr = fmt.Errorf("market: flush reputation store: %w", err)
		}
	}
	if e.runErr != nil {
		return Result{}, e.runErr
	}
	e.result.Sessions = started
	e.result.NetStats = e.net.Stats()
	// The event queue is drained: hand the simulator's slot arrays and the
	// network's delivery structs to netsim's cross-run pools, so the next
	// engine (the trial runner builds thousands) starts warm instead of
	// re-growing them from the allocator.
	e.net.Release()
	e.sim.Release()
	return e.result, nil
}

// fill starts sessions until the concurrency window is full or none remain
// within the current window budget (Run sets the budget to all sessions;
// RunWindow raises it one gossip window at a time). NoTrade sessions settle
// immediately at start and never occupy a slot.
func (e *Engine) fill() {
	for e.runErr == nil && e.nextID < e.limit && len(e.sessions) < e.cfg.Concurrency {
		id := e.nextID
		e.nextID++
		if err := e.startSession(id); err != nil {
			e.runErr = err
			return
		}
	}
}

func (e *Engine) startSession(id int) error {
	// A finished session's stream is reseeded rather than reallocated; the
	// seedmix source makes the reseed O(1) and yields the same stream as a
	// fresh math/rand source would.
	seed := seedmix.Derive(e.cfg.Seed, uint64(id)+1)
	var srng *rand.Rand
	if k := len(e.rngs); k > 0 {
		srng = e.rngs[k-1]
		e.rngs = e.rngs[:k-1]
		srng.Seed(seed)
	} else {
		srng = seedmix.NewRand(seed)
	}
	supIdx, conIdx, err := e.pickPair()
	if err != nil {
		return err
	}
	sup, con := e.agents[supIdx], e.agents[conIdx]
	bundle, err := goods.Generate(e.cfg.Gen, srng)
	if err != nil {
		return err
	}
	terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(e.cfg.SupplierShare)}

	steps, planned, err := e.plan(sup, con, terms)
	if err != nil {
		if errors.Is(err, errNoTrade) {
			e.result.NoTrade++
			e.rngs = append(e.rngs, srng)
			return nil
		}
		return err
	}
	if planned.Mode == core.ModeSafe {
		e.result.ModeSafe++
	}
	if e.cfg.Strategy != StrategyNaive {
		e.result.ConsumerExposure.Add(planned.Plan.Report.MaxConsumerExposure.Float64())
		e.result.SupplierExposure.Add(planned.Plan.Report.MaxSupplierExposure.Float64())
	}

	s := &session{
		id: id, rng: srng,
		sup: sup, con: con,
		supNode: netsim.NodeID(supIdx), conNode: netsim.NodeID(conIdx),
		terms: terms, steps: steps, planned: planned,
	}
	e.sessions[id] = s
	// Generous timeout: every step needs one message.
	timeout := netsim.Time(len(steps)+4) * 40 * netsim.Millisecond
	e.sim.Schedule(timeout, func() {
		if !s.done {
			e.finish(s, reputation.Event{Aborted: true})
		}
	})
	e.advance(s)
	return nil
}

// pickPair draws two distinct agent indices from the pairing stream.
func (e *Engine) pickPair() (sup, con int, err error) {
	if len(e.agents) < 2 {
		return 0, 0, fmt.Errorf("market: cannot pair a session with %d agent(s); need at least 2", len(e.agents))
	}
	i := e.pairRng.Intn(len(e.agents))
	j := e.pairRng.Intn(len(e.agents) - 1)
	if j >= i {
		j++
	}
	return i, j, nil
}

// plan schedules the session according to the strategy.
func (e *Engine) plan(sup, con *agent.Agent, terms exchange.Terms) (exchange.Sequence, core.PlanResult, error) {
	switch e.cfg.Strategy {
	case StrategyNaive:
		if terms.SupplierGain() < 0 || terms.ConsumerGain() < 0 {
			return nil, core.PlanResult{}, errNoTrade
		}
		return naivePlan(terms), core.PlanResult{Mode: core.ModeTrustAware}, nil
	case StrategySafeOnly:
		stakes := exchange.Stakes{Supplier: sup.Stake, Consumer: con.Stake}
		plan, err := exchange.ScheduleSafe(terms, stakes, e.cfg.Planner.Options)
		if err != nil {
			if errors.Is(err, exchange.ErrNoSafeSequence) {
				return nil, core.PlanResult{}, errNoTrade
			}
			return nil, core.PlanResult{}, err
		}
		return plan.Steps, core.PlanResult{Plan: plan, Mode: core.ModeSafe}, nil
	default: // StrategyTrustAware
		res, err := e.cfg.Planner.PlanExchange(e.participant(sup), e.participant(con), terms)
		if err != nil {
			if errors.Is(err, core.ErrNoAgreement) {
				return nil, core.PlanResult{}, errNoTrade
			}
			return nil, core.PlanResult{}, err
		}
		return res.Plan.Steps, res, nil
	}
}

func (e *Engine) participant(a *agent.Agent) core.Participant {
	return core.Participant{ID: a.ID, Estimator: e.EstimatorOf(a.ID), Policy: a.Policy, Stake: a.Stake}
}

// advance lets the actor of the next step decide, perform, and transmit it.
func (e *Engine) advance(s *session) {
	if s.done {
		return
	}
	if s.idx >= len(s.steps) {
		e.finish(s, reputation.Event{Completed: true})
		return
	}
	step := s.steps[s.idx]
	actor, role := s.con, agent.RoleConsumer
	if step.Kind == exchange.StepDeliver {
		actor, role = s.sup, agent.RoleSupplier
	}
	if actor.Behavior.Defect(e.defectContext(s, role)) {
		e.finish(s, reputation.Event{DefectedBy: actor.ID})
		return
	}
	// Perform the step locally and notify the counterpart; loss of the
	// notification stalls the session into the timeout.
	switch step.Kind {
	case exchange.StepPay:
		s.m += step.Amount
	case exchange.StepDeliver:
		s.cd += step.Item.Cost
		s.wd += step.Item.Worth
	}
	s.idx++
	from, to := s.conNode, s.supNode
	if role == agent.RoleSupplier {
		from, to = s.supNode, s.conNode
	}
	e.net.SendSeeded(from, to, stepMsg{sessionID: s.id, stepIndex: s.idx - 1}, s.rng)
}

// handle receives a step notification at the counterpart, routes it to its
// session by ID, and hands the turn back to the engine. Messages for settled
// or unknown sessions are dropped.
func (e *Engine) handle(_ netsim.NodeID, msg netsim.Message) {
	m, ok := msg.(stepMsg)
	if !ok {
		return
	}
	s, live := e.sessions[m.sessionID]
	if !live || s.done {
		return
	}
	e.advance(s)
}

// defectContext computes the temptation the acting party faces right now.
func (e *Engine) defectContext(s *session, role agent.Role) agent.DefectContext {
	var defectionGain, completionGain goods.Money
	if role == agent.RoleSupplier {
		completionGain = s.terms.SupplierGain()
		defectionGain = (s.m - s.cd) - completionGain
	} else {
		completionGain = s.terms.ConsumerGain()
		defectionGain = (s.wd - s.m) - completionGain
	}
	actor := s.con
	if role == agent.RoleSupplier {
		actor = s.sup
	}
	return agent.DefectContext{
		Role:           role,
		DefectionGain:  defectionGain,
		CompletionGain: completionGain,
		Stake:          actor.Stake,
		Progress:       float64(s.idx) / float64(len(s.steps)),
		Rng:            s.rng,
	}
}

// finish settles the session: accounting, ledger, trust feedback — then
// backfills the freed concurrency slot with the next pending session.
func (e *Engine) finish(s *session, ev reputation.Event) {
	if s.done {
		return
	}
	s.done = true
	delete(e.sessions, s.id)
	// Late step messages for s are dropped by handle, so nothing draws from
	// its stream again; nil it so a use after finish panics instead of
	// drawing from the next session's stream.
	e.rngs = append(e.rngs, s.rng)
	s.rng = nil
	ev.Supplier = s.sup.ID
	ev.Consumer = s.con.ID
	ev.Round = s.id
	ev.SupplierLoss = (s.cd - s.m).ClampNonNeg()
	ev.ConsumerLoss = (s.m - s.wd).ClampNonNeg()

	switch {
	case ev.Completed:
		e.result.Completed++
		e.result.TradeVolume += s.m
	case ev.Aborted:
		e.result.Aborted++
	default:
		e.result.Defected++
		defector := e.agentByID(ev.DefectedBy)
		e.result.DefectionsBy[defector.Behavior.Name()]++
		e.result.RealizedConsumerLoss.Add(ev.ConsumerLoss.Float64())
		e.result.RealizedSupplierLoss.Add(ev.SupplierLoss.Float64())
	}
	e.result.Welfare += s.wd - s.cd
	if _, isHonest := s.sup.Behavior.(agent.Honest); isHonest && ev.SupplierLoss > 0 {
		e.result.HonestVictimLoss += ev.SupplierLoss
	}
	if _, isHonest := s.con.Behavior.(agent.Honest); isHonest && ev.ConsumerLoss > 0 {
		e.result.HonestVictimLoss += ev.ConsumerLoss
	}

	e.ledger.Append(ev)
	err := reputation.Feed(ev,
		e.EstimatorOf,
		func(id trust.PeerID) bool {
			a := e.agentByID(id)
			return a != nil && a.LiesAsWitness
		})
	if err != nil && e.runErr == nil {
		e.runErr = err
	}
	e.fill()
}
