package market

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
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
// virtual clock: each step message carries its session, so one engine models
// a marketplace where many exchanges are in flight simultaneously. All
// randomness that decides a session's fate (its bundle, its defection rolls,
// its message loss and latency) comes from a per-session stream derived from
// Config.Seed and the session ID, and pairing draws from a dedicated stream
// in session-ID order — so a run is exactly reproducible for a fixed (Seed,
// Concurrency), and session outcomes do not depend on how sessions happen to
// interleave.
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

	// pairs holds the parties of the next pairsLeft sessions, supplier then
	// consumer, the next at pairs[2*(pairBatch-pairsLeft)]. drawPairs
	// refills it from pairRng, in session-ID order, pairBatch pairs at a
	// time. Pairs drawn beyond the last session are never used, and pairRng
	// serves nothing else, so drawing ahead changes no draw.
	pairs     [2 * pairBatch]party
	pairsLeft int

	// outcomes is the outcome log, by agent index; Ledger builds the
	// reputation.Events from it on demand.
	outcomes outcomeLog

	// Per-agent state is indexed by population position, never by ID: a
	// session keeps its parties' indices and the outcome log stores them,
	// so the engine keeps no per-agent map (NewEngine's duplicate-ID check
	// uses a table it drops on return). Where an agent's estimator is its
	// own state (private Beta, a gossip node's posterior book, or
	// Config.EstimatorOf), ests holds it, created on first use: every
	// estimator kind is order-independent, so laziness cannot change
	// results. A RepStore engine keeps no per-agent estimator at all (ests
	// is nil); see complaintEst.
	agents      []*agent.Agent
	ests        []trust.Estimator // lazily filled; index-aligned with agents
	estimatorOf func(trust.PeerID) trust.Estimator
	repStore    complaints.Store // engine-owned store from Config.RepStore; nil otherwise

	// complaintEst is every agent's estimator in RepStore mode (nil
	// otherwise): one complaints.Estimator over one assessor built at
	// construction, which carries the shared average-product cache that
	// makes trust reads O(1) (complaints.Aggregator backends) or
	// one-scan-per-write-burst (generation-counting backends). Complaint
	// trust is global, so Estimate never reads the observer; a record files
	// as whatever Observer holds, which estimatorAt sets to the agent asked
	// for, and reputation.Feed records through it before asking again.
	complaintEst *complaints.Estimator

	// inFlight lists the started sessions in ID order; settled ones stay
	// until startSession compacts the list. live counts the unsettled ones.
	inFlight []*session
	live     int
	nextID   int // next session to start
	limit    int // sessions allowed to start (window budget)
	// kits is the free list of what finished sessions handed back, which
	// startSession reuses before it allocates: a NoTrade session returns
	// its kit at once, a traded one in finish.
	kits []sessionKit
	// bundle is the item buffer every session's bundle is drawn into. A
	// bundle is read only while its session starts (the plan copies its
	// items, the session keeps both parties' completion gains), and
	// startSession is done with it before its first step can finish the
	// session and start the next, so one buffer serves every session.
	bundle   []goods.Item
	windowed bool  // RunWindow drives the budget (gossip mode)
	finished bool  // FinishRun has settled the engine
	runErr   error // first error raised inside the event loop
	result   Result
}

// sessionKit is what a finished session leaves for a later one: its
// stream, which startSession reseeds (the seedmix source makes that O(1),
// and the stream equals a fresh math/rand source's), and its plan's backing
// array, which a naive or trust-aware plan is written into.
type sessionKit struct {
	rng   *rand.Rand
	steps exchange.Sequence
}

// session is the live state of one exchange. It carries all that its steps
// and finish read of the two parties, so a party's agent record is read
// once per session, by drawPairs: the records of pairBatch sessions
// together, so their cache misses overlap, kept as a party to which
// startSession adds the completion gain the step path would otherwise
// re-sum from the bundle. No code changes an agent while a run is going,
// so reading it once changes nothing. The session itself is the step
// message its parties send each other: a pointer boxes into netsim.Message
// without allocating, and since a session is never reused, a step
// delivered after it finished still finds done set. Its stream and plan
// are reused, so finish nils both.
type session struct {
	id       int
	rng      *rand.Rand        // per-session stream: bundle, defections, network draws; nil once finished
	steps    exchange.Sequence // the plan; nil once finished
	idx      int               // next step to perform
	m        goods.Money
	cd, wd   goods.Money
	sup, con party
	done     bool
}

// party is what a session needs of one of its two agents.
type party struct {
	id    trust.PeerID
	idx   int32 // population index
	liar  bool  // the agent's LiesAsWitness
	stake goods.Money
	beh   agent.Behavior
	gain  goods.Money // what completing the exchange gains the party
}

// newParty is agents[i], a, as a session party, before its gain is known.
func newParty(i int, a *agent.Agent) party {
	return party{id: a.ID, idx: int32(i), liar: a.LiesAsWitness, stake: a.Stake, beh: a.Behavior}
}

// pairBatch is how many sessions' parties drawPairs reads together.
const pairBatch = 16

// sessionTimeout is a session's timeout timer: the session pointer under a
// second type, so it boxes into netsim.Message without allocating and
// handle tells it from a step message.
type sessionTimeout session

// outcomeKind is how a session ended.
type outcomeKind uint8

const (
	outcomeCompleted outcomeKind = iota
	outcomeAborted
	outcomeSupplierDefected
	outcomeConsumerDefected
)

// outcome is one finished session in the outcome log. It holds no pointer,
// so the collector never scans the log, and it is about half the size of
// the reputation.Event it stands for.
type outcome struct {
	round            int
	sup, con         int32
	kind             outcomeKind
	supLoss, conLoss goods.Money
}

// outcomeChunk is the number of outcomes per chunk of the log.
const outcomeChunk = 4096

// outcomeLog is an append-only log of outcomes in fixed-size chunks, so a
// full chunk is never copied. The first chunk grows by append up to
// outcomeChunk, so a short run never allocates a whole chunk.
type outcomeLog struct {
	chunks [][]outcome
}

func (l *outcomeLog) append(o outcome) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == outcomeChunk {
		var c []outcome
		if k >= 0 {
			c = make([]outcome, 0, outcomeChunk)
		}
		l.chunks = append(l.chunks, c)
		k++
	}
	l.chunks[k] = append(l.chunks[k], o)
}

// NewEngine validates cfg and assembles the marketplace.
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	agents := cfg.Agents
	if i := firstDuplicate(len(agents), func(i int) trust.PeerID { return agents[i].ID }); i >= 0 {
		return nil, fmt.Errorf("market: duplicate agent ID %q", agents[i].ID)
	}
	e := &Engine{
		cfg:      cfg,
		pairRng:  seedmix.NewRand(seedmix.Derive(cfg.Seed, 0)),
		sim:      netsim.NewSimulator(),
		agents:   cfg.Agents,
		inFlight: make([]*session, 0, 2*cfg.Concurrency),
		limit:    cfg.Sessions, // full-run budget; RunWindow switches to incremental
	}
	e.net = netsim.NewNetwork(e.sim, cfg.Latency)
	e.net.SetDropRate(cfg.DropRate)
	e.result.DefectionsBy = make(map[string]int)

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
			// store's batched write path. Everything below (estimator,
			// assessor, post-run reads) goes through the node.
			cfg.GossipNode.Attach(store)
			store = cfg.GossipNode
		}
		e.repStore = store
		// The assessor lists the IDs only if it must scan the population.
		e.complaintEst = &complaints.Estimator{Assessor: complaints.NewAssessorView(store, len(agents),
			func() []trust.PeerID { return agent.IDs(agents) })}
	} else {
		e.estimatorOf = cfg.EstimatorOf
		if cfg.Evidence == trust.EvidencePosterior && cfg.GossipNode != nil {
			// The shard's per-agent Beta estimators live in the gossip node's
			// book: records land locally at once and are buffered as posterior
			// deltas for the cell's next exchange; remote deltas merge in with
			// decay compensation. This is the path that lets estimator-backed
			// cells shard — same fabric, different evidence kind.
			e.estimatorOf = cfg.GossipNode.AttachBook(cfg.Beta).Estimator
		}
		if e.estimatorOf == nil {
			// Private per-agent Beta estimators — both the historical default
			// and the standalone Evidence = posterior wiring (Config.Beta is
			// the zero value unless set, so the paths are byte-identical).
			bcfg := cfg.Beta
			e.estimatorOf = func(trust.PeerID) trust.Estimator { return trust.NewBeta(bcfg) }
		}
		e.ests = make([]trust.Estimator, len(cfg.Agents))
	}

	e.sim.SetHandler(e.handle)
	return e, nil
}

// firstDuplicate returns the index of the first of n IDs, in index order,
// that an earlier index already has, or -1; id(i) is the ID at index i. It
// probes a transient open-addressing table at most half full, whose 4-byte
// slots pack an index+1 into their low bits.Len(n) bits (0 marks a free
// slot) and a tag, the top bits of the ID's hash, into the bits above. It
// compares two IDs only when their tags match, and keeps nothing once it
// returns. IDs are hashed a batch at a time before the batch probes, so the
// probes' cache misses into a table far larger than the caches overlap.
//
// n must be at most math.MaxInt32, which Config.withDefaults guarantees:
// the index then takes at most 31 bits and leaves the tag at least one.
func firstDuplicate(n int, id func(int) trust.PeerID) int {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	table, mask := make([]uint32, size), uint64(size-1)
	idxBits := uint(bits.Len(uint(n)))
	atMask := uint32(1)<<idxBits - 1
	seed := maphash.MakeSeed()
	var hashes [32]uint64
	for base := 0; base < n; base += len(hashes) {
		batch := hashes[:min(len(hashes), n-base)]
		for j := range batch {
			batch[j] = maphash.String(seed, string(id(base+j)))
		}
		for j, h := range batch {
			// The probe starts from h's low bits, the tag is its top 32−idxBits.
			tag := uint32(h>>(32+idxBits)) << idxBits
			for p := h & mask; ; p = (p + 1) & mask {
				s := table[p]
				if s == 0 {
					table[p] = tag | uint32(base+j+1)
					break
				}
				if s&^atMask == tag && id(int(s&atMask)-1) == id(base+j) {
					return base + j
				}
			}
		}
	}
	return -1
}

// estimatorAt returns the estimator agents[i], whose ID is id, plans and
// records through: in RepStore mode the shared complaintEst, set to file as
// id (so a caller records through it before asking for another agent's);
// otherwise agents[i]'s own, created on first use. Callers pass the ID
// they already hold, so asking reads no agent.
func (e *Engine) estimatorAt(i int32, id trust.PeerID) trust.Estimator {
	if e.complaintEst != nil {
		e.complaintEst.Observer = id
		return e.complaintEst
	}
	if e.ests[i] == nil {
		e.ests[i] = e.estimatorOf(id)
	}
	return e.ests[i]
}

// Ledger returns the outcome log so far (for learning-curve analyses), built
// afresh on each call. With Concurrency > 1 events are in session *finish*
// order; every event still carries its session ID in Round.
func (e *Engine) Ledger() *reputation.Ledger {
	l := &reputation.Ledger{}
	for _, c := range e.outcomes.chunks {
		for _, o := range c {
			l.Append(e.event(o, e.agents[o.sup].ID, e.agents[o.con].ID))
		}
	}
	return l
}

// event is o, between the agents with IDs sup and con, as a
// reputation.Event.
func (e *Engine) event(o outcome, sup, con trust.PeerID) reputation.Event {
	ev := reputation.Event{
		Supplier:     sup,
		Consumer:     con,
		Round:        o.round,
		SupplierLoss: o.supLoss,
		ConsumerLoss: o.conLoss,
	}
	switch o.kind {
	case outcomeCompleted:
		ev.Completed = true
	case outcomeAborted:
		ev.Aborted = true
	case outcomeSupplierDefected:
		ev.DefectedBy = ev.Supplier
	case outcomeConsumerDefected:
		ev.DefectedBy = ev.Consumer
	}
	return ev
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
	e.sim.Run()
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
	e.sim.Run()
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
	for _, s := range e.inFlight {
		e.finish(s, outcomeAborted) // a no-op for the settled ones
	}
	e.inFlight = nil
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
	return e.result, nil
}

// fill starts sessions until the concurrency window is full or none remain
// within the current window budget (Run sets the budget to all sessions;
// RunWindow raises it one gossip window at a time). NoTrade sessions settle
// immediately at start and never occupy a slot.
func (e *Engine) fill() {
	for e.runErr == nil && e.nextID < e.limit && e.live < e.cfg.Concurrency {
		id := e.nextID
		e.nextID++
		if err := e.startSession(id); err != nil {
			e.runErr = err
			return
		}
	}
}

func (e *Engine) startSession(id int) error {
	seed := seedmix.Derive(e.cfg.Seed, uint64(id)+1)
	var kit sessionKit
	if k := len(e.kits); k > 0 {
		kit = e.kits[k-1]
		e.kits = e.kits[:k-1]
		kit.rng.Seed(seed)
	} else {
		kit.rng = seedmix.NewRand(seed)
	}
	if e.pairsLeft == 0 {
		if err := e.drawPairs(); err != nil {
			return err
		}
	}
	next := 2 * (pairBatch - e.pairsLeft)
	e.pairsLeft--
	sup, con := e.pairs[next], e.pairs[next+1]
	bundle, err := goods.GenerateInto(e.bundle, e.cfg.Gen, kit.rng)
	if err != nil {
		return err
	}
	e.bundle = bundle.Items
	terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(supplierShare)}
	sup.gain, con.gain = terms.SupplierGain(), terms.ConsumerGain()

	steps, planned, err := e.plan(&sup, &con, terms, kit.steps)
	if err != nil {
		if errors.Is(err, errNoTrade) {
			e.result.NoTrade++
			e.kits = append(e.kits, kit)
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

	s := &session{id: id, rng: kit.rng, steps: steps, sup: sup, con: con}
	if len(e.inFlight) >= 2*e.cfg.Concurrency {
		// At most Concurrency−1 sessions are live, so at least half the
		// list is settled: compaction costs O(1) per session.
		e.inFlight = slices.DeleteFunc(e.inFlight, func(s *session) bool { return s.done })
	}
	e.inFlight = append(e.inFlight, s)
	e.live++
	// Generous timeout: every step needs one message.
	timeout := netsim.Time(len(steps)+4) * 40 * netsim.Millisecond
	e.sim.Timer(timeout, (*sessionTimeout)(s))
	e.advance(s)
	return nil
}

// drawPairs reads the parties of the next pairBatch sessions into pairs. It
// draws every pair first, then looks up every agent, then reads every
// record, so the cache misses of each stage overlap instead of queueing
// behind one another.
func (e *Engine) drawPairs() error {
	var idx [2 * pairBatch]int
	for k := 0; k < len(idx); k += 2 {
		sup, con, err := e.pickPair()
		if err != nil {
			return err
		}
		idx[k], idx[k+1] = sup, con
	}
	var recs [2 * pairBatch]*agent.Agent
	for k, i := range idx {
		recs[k] = e.agents[i]
	}
	for k, a := range recs {
		e.pairs[k] = newParty(idx[k], a)
	}
	e.pairsLeft = pairBatch
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

// plan schedules the session between sup and con according to the
// strategy. The plan is written into buf when it has room.
func (e *Engine) plan(sup, con *party, terms exchange.Terms, buf exchange.Sequence) (exchange.Sequence, core.PlanResult, error) {
	switch e.cfg.Strategy {
	case StrategyNaive:
		if sup.gain < 0 || con.gain < 0 {
			return nil, core.PlanResult{}, errNoTrade
		}
		return naivePlan(buf, terms), core.PlanResult{Mode: core.ModeTrustAware}, nil
	case StrategySafeOnly:
		stakes := exchange.Stakes{Supplier: sup.stake, Consumer: con.stake}
		plan, err := exchange.ScheduleSafeInto(buf, terms, stakes, exchange.Options{})
		if err != nil {
			if errors.Is(err, exchange.ErrNoSafeSequence) {
				return nil, core.PlanResult{}, errNoTrade
			}
			return nil, core.PlanResult{}, err
		}
		return plan.Steps, core.PlanResult{Plan: plan, Mode: core.ModeSafe}, nil
	default: // StrategyTrustAware
		res, err := planner.PlanExchangeInto(buf, e.participant(int(sup.idx)), e.participant(int(con.idx)), terms)
		if err != nil {
			if errors.Is(err, core.ErrNoAgreement) {
				return nil, core.PlanResult{}, errNoTrade
			}
			return nil, core.PlanResult{}, err
		}
		return res.Plan.Steps, res, nil
	}
}

// participant is agents[i] as the planner sees it.
func (e *Engine) participant(i int) core.Participant {
	a := e.agents[i]
	return core.Participant{ID: a.ID, Estimator: e.estimatorAt(int32(i), a.ID), Policy: a.Policy, Stake: a.Stake}
}

// advance lets the actor of the next step decide, perform, and transmit it.
func (e *Engine) advance(s *session) {
	if s.done {
		return
	}
	if s.idx >= len(s.steps) {
		e.finish(s, outcomeCompleted)
		return
	}
	step := s.steps[s.idx]
	actor, role, defected := &s.con, agent.RoleConsumer, outcomeConsumerDefected
	if step.Kind == exchange.StepDeliver {
		actor, role, defected = &s.sup, agent.RoleSupplier, outcomeSupplierDefected
	}
	if actor.beh.Defect(s.defectContext(actor, role)) {
		e.finish(s, defected)
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
	e.net.Send(s, s.rng)
}

// handle receives a step notification at the counterpart and hands the turn
// back to the engine (advance drops it if the session has settled), or fires
// a session's timeout, which aborts it unless it has settled.
func (e *Engine) handle(msg netsim.Message) {
	switch m := msg.(type) {
	case *session:
		e.advance(m)
	case *sessionTimeout:
		e.finish((*session)(m), outcomeAborted) // a no-op once settled
	}
}

// defectContext computes the temptation actor, the session's party in
// role, faces right now.
func (s *session) defectContext(actor *party, role agent.Role) agent.DefectContext {
	walkAway := s.wd - s.m // what the consumer holds if it walks away now
	if role == agent.RoleSupplier {
		walkAway = s.m - s.cd
	}
	return agent.DefectContext{
		Role:           role,
		DefectionGain:  walkAway - actor.gain,
		CompletionGain: actor.gain,
		Stake:          actor.stake,
		Progress:       float64(s.idx) / float64(len(s.steps)),
		Rng:            s.rng,
	}
}

// finish settles the session: accounting, outcome log, trust feedback —
// then backfills the freed concurrency slot with the next pending session.
func (e *Engine) finish(s *session, kind outcomeKind) {
	if s.done {
		return
	}
	s.done = true
	e.live--
	// Late step messages for s are dropped by advance, so nothing reads its
	// stream or plan again; nil both so a use after finish panics instead
	// of reading the next session's.
	e.kits = append(e.kits, sessionKit{rng: s.rng, steps: s.steps})
	s.rng, s.steps = nil, nil
	o := outcome{
		round: s.id, sup: s.sup.idx, con: s.con.idx, kind: kind,
		supLoss: (s.cd - s.m).ClampNonNeg(),
		conLoss: (s.m - s.wd).ClampNonNeg(),
	}

	switch kind {
	case outcomeCompleted:
		e.result.Completed++
		e.result.TradeVolume += s.m
	case outcomeAborted:
		e.result.Aborted++
	default:
		e.result.Defected++
		defector := s.con.beh
		if kind == outcomeSupplierDefected {
			defector = s.sup.beh
		}
		e.result.DefectionsBy[defector.Name()]++
		e.result.RealizedConsumerLoss.Add(o.conLoss.Float64())
		e.result.RealizedSupplierLoss.Add(o.supLoss.Float64())
	}
	e.result.Welfare += s.wd - s.cd
	if _, isHonest := s.sup.beh.(agent.Honest); isHonest && o.supLoss > 0 {
		e.result.HonestVictimLoss += o.supLoss
	}
	if _, isHonest := s.con.beh.(agent.Honest); isHonest && o.conLoss > 0 {
		e.result.HonestVictimLoss += o.conLoss
	}

	e.outcomes.append(o)
	// Feed asks only about the two parties, which s holds.
	partyOf := func(id trust.PeerID) *party {
		if id == s.sup.id {
			return &s.sup
		}
		return &s.con
	}
	err := reputation.Feed(e.event(o, s.sup.id, s.con.id),
		func(id trust.PeerID) trust.Estimator { return e.estimatorAt(partyOf(id).idx, id) },
		func(id trust.PeerID) bool { return partyOf(id).liar })
	if err != nil && e.runErr == nil {
		e.runErr = err
	}
	e.fill()
}
