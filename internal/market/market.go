// Package market is the evaluation substrate: a marketplace of agents that
// repeatedly pair up, agree on terms, schedule an exchange with a chosen
// strategy, and execute it step by step over the simulated network — with
// live defection decisions, message loss, reputation feedback and full
// accounting. Every experiment about completion rates, welfare and losses
// runs on this engine.
package market

import (
	"errors"
	"fmt"
	"math"

	"trustcoop/internal/agent"
	"trustcoop/internal/core"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/netsim"
	"trustcoop/internal/stats"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/gossip"
)

// Strategy selects how sessions schedule their exchanges.
type Strategy int

// The scheduling strategies compared by the experiments.
const (
	// StrategyNaive pays the whole price upfront, then delivers — the
	// no-mechanism baseline (maximal consumer exposure).
	StrategyNaive Strategy = iota + 1
	// StrategySafeOnly trades only when a fully safe sequence exists under
	// the parties' stakes.
	StrategySafeOnly
	// StrategyTrustAware is the paper's mechanism: safe when possible,
	// bounded-exposure otherwise.
	StrategyTrustAware
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategySafeOnly:
		return "safe-only"
	case StrategyTrustAware:
		return "trust-aware"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterises a marketplace run.
type Config struct {
	// Seed drives all randomness (pairing, bundles, behaviours, network).
	Seed int64
	// Sessions is the number of exchange sessions to run.
	Sessions int
	// Concurrency is the number of sessions kept in flight simultaneously on
	// the virtual clock; 0 or 1 runs sessions strictly one after another.
	// Session outcomes are interleaving-independent (each session draws its
	// randomness from its own seeded stream), but with learning estimators a
	// concurrent session plans against staler trust — see Engine.
	Concurrency int
	// Agents is the population; at least two.
	Agents []*agent.Agent
	// EstimatorOf supplies each agent's trust view. nil gives every agent
	// a private Beta estimator (unless RepStore is set).
	EstimatorOf func(id trust.PeerID) trust.Estimator
	// RepStore selects a shared complaint-store backend for the agents'
	// trust views by registry spec ("memory", "sharded", "async",
	// "async:sharded", "pgrid", …): the engine builds one store, and every
	// agent estimates through its own complaints.Estimator over it — the
	// reference-[2] deployment with a pluggable data plane. Empty keeps the
	// EstimatorOf / private-Beta behaviour. Mutually exclusive with
	// EstimatorOf. Decentralised backends need their package linked in
	// (internal/pgrid registers "pgrid").
	RepStore string
	// RepStoreConfig tunes the selected backend (shard count, batch size,
	// grid size, …). A zero Seed is derived from Config.Seed.
	RepStoreConfig complaints.BackendConfig
	// Evidence selects the trust-evidence kind the engine's estimators run
	// on — the knob that decides what a sharded cell gossips:
	//
	//   - "" keeps the wiring implied by the other fields (RepStore →
	//     complaint estimators, EstimatorOf → custom, neither → private
	//     Beta estimators), the pre-evidence-plane behaviour;
	//   - trust.EvidenceComplaints makes the complaint wiring explicit and
	//     requires RepStore;
	//   - trust.EvidencePosterior gives every agent a Bayesian
	//     direct-experience estimator (trust.Beta, tuned by Config.Beta).
	//     Standalone that is exactly the default private-Beta marketplace;
	//     with GossipNode set the estimators live in the node's
	//     gossip.Book, so the cell's fabric exchanges Beta-posterior
	//     deltas between shards — the path that lets estimator-backed
	//     cells shard. Mutually exclusive with RepStore and EstimatorOf.
	Evidence trust.EvidenceKind
	// Beta tunes the posterior estimators (Evidence = posterior); the zero
	// value is the uniform prior with no forgetting. Beta.Export selects the
	// posterior gossip export policy (codec, quantization, selective export)
	// and therefore requires Evidence = posterior — there is no posterior
	// plane to compress otherwise.
	Beta trust.BetaConfig
	// Gossip configures cross-shard complaint gossip for cells sharded
	// across sub-engines (eval.RunCell): every Gossip.Period sessions the
	// engine reaches a sync point, where the cell's exchange fabric ships
	// complaint batches between shards. The config travels with the cell
	// definition — period, topology and fan-out change the information
	// structure, so they are part of the experiment, like the shard count. The
	// zero value (Period 0, "period = ∞") disables gossip and leaves the
	// engine's execution byte-identical to the ungossiped path.
	Gossip gossip.Config
	// GossipNode is this engine's endpoint in its cell's exchange fabric,
	// set by eval.RunCell. With a complaint backend (RepStore) the engine
	// attaches the node to the store it builds, so locally filed
	// complaints are buffered for gossip while remote batches land through
	// the batched write path; with Evidence = posterior the engine attaches
	// a gossip.Book of per-agent Beta estimators instead. Requires RepStore
	// or Evidence = posterior. nil means no gossip.
	GossipNode *gossip.Node
	// Gen configures bundle generation; zero value means
	// goods.DefaultGenConfig.
	Gen goods.GenConfig
	// Strategy selects the scheduler; 0 means StrategyTrustAware.
	Strategy Strategy
	// DropRate is the per-message loss probability of the network, in
	// [0, 1].
	DropRate float64
	// Latency is the per-message latency; the zero value means
	// UniformLatency{1, 10}.
	Latency netsim.UniformLatency
}

// supplierShare is the surplus share every session's price gives the
// supplier.
const supplierShare = 0.5

// planner is the trust-aware planner every engine uses: the marketplace
// rejects terms where either party's nominal gain is negative.
var planner = core.Planner{RequireBeneficial: true}

func (c Config) withDefaults() (Config, error) {
	if len(c.Agents) < 2 {
		return c, fmt.Errorf("market: need at least 2 agents, have %d", len(c.Agents))
	}
	if len(c.Agents) > math.MaxInt32 {
		// The engine indexes agents by int32.
		return c, fmt.Errorf("market: at most %d agents, have %d", math.MaxInt32, len(c.Agents))
	}
	if c.Sessions <= 0 {
		return c, fmt.Errorf("market: sessions must be positive, have %d", c.Sessions)
	}
	if c.Concurrency < 0 {
		return c, fmt.Errorf("market: concurrency must be non-negative, have %d", c.Concurrency)
	}
	if c.Concurrency == 0 {
		c.Concurrency = 1
	}
	if !(c.DropRate >= 0 && c.DropRate <= 1) {
		return c, fmt.Errorf("market: drop rate must be in [0, 1], have %v", c.DropRate)
	}
	if c.RepStore != "" && c.EstimatorOf != nil {
		return c, errors.New("market: RepStore and EstimatorOf are mutually exclusive")
	}
	switch c.Evidence {
	case "", trust.EvidenceComplaints, trust.EvidencePosterior:
	default:
		return c, fmt.Errorf("market: unknown evidence kind %q (have %s, %s)",
			c.Evidence, trust.EvidenceComplaints, trust.EvidencePosterior)
	}
	if c.Evidence == trust.EvidenceComplaints && c.RepStore == "" {
		return c, errors.New("market: complaint evidence requires a RepStore backend")
	}
	if c.Evidence != trust.EvidencePosterior && c.Beta.Export != (trust.ExportPolicy{}) {
		return c, errors.New("market: Beta.Export policy requires posterior evidence (there is no posterior plane to compress)")
	}
	if c.Evidence == trust.EvidencePosterior {
		if c.RepStore != "" {
			return c, errors.New("market: posterior evidence and RepStore are mutually exclusive (the posterior lives in per-agent estimators, not a complaint store)")
		}
		if c.EstimatorOf != nil {
			return c, errors.New("market: posterior evidence and EstimatorOf are mutually exclusive")
		}
	}
	if err := c.Gossip.Validate(); err != nil {
		return c, fmt.Errorf("market: %w", err)
	}
	if c.GossipNode != nil && c.RepStore == "" && c.Evidence != trust.EvidencePosterior {
		return c, errors.New("market: GossipNode requires a RepStore backend or posterior evidence (gossip needs an evidence kind to exchange)")
	}
	if c.Gen.Items == 0 {
		c.Gen = goods.DefaultGenConfig()
	}
	if c.Strategy == 0 {
		c.Strategy = StrategyTrustAware
	}
	if c.Latency == (netsim.UniformLatency{}) {
		c.Latency = netsim.UniformLatency{Min: 1, Max: 10}
	}
	return c, nil
}

// Result aggregates a run.
type Result struct {
	Sessions  int // sessions attempted
	NoTrade   int // planning found no acceptable schedule
	Completed int // fully settled exchanges
	Defected  int // a party walked away
	Aborted   int // killed by message loss

	// Welfare is the realised surplus: consumer value received minus
	// supplier cost sunk, summed over all sessions.
	Welfare goods.Money
	// TradeVolume is the total money settled.
	TradeVolume goods.Money
	// HonestVictimLoss sums losses suffered by honest-behaviour agents.
	HonestVictimLoss goods.Money

	// ConsumerExposure and SupplierExposure sample the planned worst-case
	// exposures of executed sessions.
	ConsumerExposure stats.Sample
	SupplierExposure stats.Sample
	// RealizedConsumerLoss and RealizedSupplierLoss sample the losses of
	// defected sessions.
	RealizedConsumerLoss stats.Sample
	RealizedSupplierLoss stats.Sample
	// ModeSafe counts sessions scheduled fully safely (trust-aware strategy
	// only).
	ModeSafe int

	// DefectionsBy counts defections per behaviour name.
	DefectionsBy map[string]int

	// NetStats is the network activity of the run.
	NetStats netsim.Stats
}

// Merge folds other into r, as if both runs' sessions had executed on one
// engine: counts and money sum, the exposure and loss samples merge through
// stats.Sample.Merge, per-behaviour defection counts and network stats add
// up. Merging in a fixed order is deterministic, which is what lets a cell
// sharded across sub-engines (eval.RunCell) reduce to one Result that is
// byte-identical however many engines ran concurrently.
func (r *Result) Merge(other Result) {
	r.Sessions += other.Sessions
	r.NoTrade += other.NoTrade
	r.Completed += other.Completed
	r.Defected += other.Defected
	r.Aborted += other.Aborted
	r.Welfare += other.Welfare
	r.TradeVolume += other.TradeVolume
	r.HonestVictimLoss += other.HonestVictimLoss
	r.ConsumerExposure.Merge(other.ConsumerExposure)
	r.SupplierExposure.Merge(other.SupplierExposure)
	r.RealizedConsumerLoss.Merge(other.RealizedConsumerLoss)
	r.RealizedSupplierLoss.Merge(other.RealizedSupplierLoss)
	r.ModeSafe += other.ModeSafe
	if len(other.DefectionsBy) > 0 && r.DefectionsBy == nil {
		r.DefectionsBy = make(map[string]int, len(other.DefectionsBy))
	}
	for name, n := range other.DefectionsBy {
		r.DefectionsBy[name] += n
	}
	r.NetStats.Add(other.NetStats)
}

// CompletionRate is Completed over trades actually attempted (excluding
// NoTrade and network aborts).
func (r Result) CompletionRate() float64 {
	attempted := r.Completed + r.Defected
	if attempted == 0 {
		return 0
	}
	return float64(r.Completed) / float64(attempted)
}

// TradeRate is the fraction of sessions where planning produced a schedule.
func (r Result) TradeRate() float64 {
	if r.Sessions == 0 {
		return 0
	}
	return float64(r.Sessions-r.NoTrade) / float64(r.Sessions)
}

// naivePlan is the no-mechanism baseline: pay everything, then deliver. The
// plan is written into seq's backing array when it has room, and otherwise
// made at its final length, one allocation per plan.
func naivePlan(seq exchange.Sequence, terms exchange.Terms) exchange.Sequence {
	n := len(terms.Bundle.Items)
	if terms.Price != 0 {
		n++
	}
	if cap(seq) < n {
		seq = make(exchange.Sequence, 0, n)
	}
	seq = seq[:0]
	if terms.Price != 0 {
		seq = append(seq, exchange.Step{Kind: exchange.StepPay, Amount: terms.Price})
	}
	for _, it := range terms.Bundle.Items {
		seq = append(seq, exchange.Step{Kind: exchange.StepDeliver, Item: it})
	}
	return seq
}

var errNoTrade = errors.New("market: no trade")
