// Package agent models the members of the online community: behaviour
// profiles that decide, at every point of an exchange, whether to keep
// cooperating or to defect, plus population builders for the experiments.
package agent

import (
	"fmt"
	"math/rand"

	"trustcoop/internal/decision"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

// Role says which side of an exchange the agent is playing.
type Role int

// The two exchange roles.
const (
	RoleSupplier Role = iota + 1
	RoleConsumer
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleSupplier:
		return "supplier"
	case RoleConsumer:
		return "consumer"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// DefectContext is what a behaviour sees when deciding whether to walk away
// before performing its next step.
type DefectContext struct {
	Role Role
	// DefectionGain is the immediate advantage of defecting now over
	// completing: (utility if walking away) − (utility if completing).
	// Positive means defecting pays, ignoring reputation.
	DefectionGain goods.Money
	// CompletionGain is the agent's gain from finishing the exchange.
	CompletionGain goods.Money
	// Stake is the future business the agent forfeits by defecting (its
	// reputation value).
	Stake goods.Money
	// Progress is the fraction of plan steps already executed, in [0, 1].
	Progress float64
	// Rng drives stochastic behaviours; never nil during execution.
	Rng *rand.Rand
}

// Behavior decides defection at each step an agent is about to perform.
type Behavior interface {
	Name() string
	Defect(ctx DefectContext) bool
}

// Honest never defects, whatever the temptation.
type Honest struct{}

// Name implements Behavior.
func (Honest) Name() string { return "honest" }

// Defect implements Behavior.
func (Honest) Defect(DefectContext) bool { return false }

// Rational defects exactly when the immediate gain exceeds the reputation
// stake — the paper's model of self-interested parties, and the reason safe
// sequences keep rational agents honest by construction.
type Rational struct{}

// Name implements Behavior.
func (Rational) Name() string { return "rational" }

// Defect implements Behavior.
func (Rational) Defect(ctx DefectContext) bool {
	return ctx.DefectionGain > ctx.Stake
}

// Opportunist defects whenever the immediate gain exceeds a fixed threshold,
// ignoring reputation — a myopic cheater.
type Opportunist struct {
	Threshold goods.Money
}

// Name implements Behavior.
func (o Opportunist) Name() string { return "opportunist" }

// Defect implements Behavior.
func (o Opportunist) Defect(ctx DefectContext) bool {
	return ctx.DefectionGain > o.Threshold
}

// RandomDefector defects with a fixed probability at every step — noise
// rather than strategy.
type RandomDefector struct {
	P float64
}

// Name implements Behavior.
func (RandomDefector) Name() string { return "random" }

// Defect implements Behavior.
func (r RandomDefector) Defect(ctx DefectContext) bool {
	return ctx.Rng.Float64() < r.P
}

// Backstabber cooperates until the exchange is nearly finished, then defects
// at the first profitable moment — the worst case for lazily paying
// consumers.
type Backstabber struct {
	// After is the progress fraction past which it looks for the exit.
	After float64
}

// Name implements Behavior.
func (Backstabber) Name() string { return "backstabber" }

// Defect implements Behavior.
func (b Backstabber) Defect(ctx DefectContext) bool {
	return ctx.Progress >= b.After && ctx.DefectionGain > 0
}

// Agent is one community member.
type Agent struct {
	ID       trust.PeerID
	Behavior Behavior
	// Policy derives the agent's exposure caps from its trust estimates.
	Policy decision.Policy
	// Stake is the future-business value the agent forfeits by defecting.
	Stake goods.Money
	// LiesAsWitness makes the agent invert what it reports to the
	// reputation layer.
	LiesAsWitness bool
	// TrueHonesty is the ground-truth cooperation probability used by
	// oracle baselines and learning metrics.
	TrueHonesty float64
}

// PopConfig describes a population mix. Counts may be zero, not negative.
type PopConfig struct {
	Honest      int
	Rational    int
	Opportunist int
	Random      int
	Backstabber int

	// OpportunistThreshold is the Opportunist trigger; 0 means 5 units.
	OpportunistThreshold goods.Money
	// Stake applied to every agent.
	Stake goods.Money
	// Policy factory; nil means risk-neutral for everyone.
	Policy func(i int) decision.Policy
	// LiarFraction of the population, in [0, 1], inverts its witness
	// reports.
	LiarFraction float64
}

// randomDefectP is every RandomDefector's step probability, and
// backstabAfter every Backstabber's trigger progress.
const (
	randomDefectP = 0.1
	backstabAfter = 0.7
)

// Size is the total number of agents the config describes.
func (c PopConfig) Size() int {
	return c.Honest + c.Rational + c.Opportunist + c.Random + c.Backstabber
}

// NewPopulation builds the agents deterministically from cfg and rng (the
// rng only drives liar selection). TrueHonesty is set per behaviour: honest
// 1.0; rational 0.9 (kept honest by stakes in well-designed exchanges);
// random 1−P per step; backstabber 0.15; opportunist 0.25.
func NewPopulation(cfg PopConfig, rng *rand.Rand) ([]*Agent, error) {
	if min(cfg.Honest, cfg.Rational, cfg.Opportunist, cfg.Random, cfg.Backstabber) < 0 {
		return nil, fmt.Errorf("agent: negative behaviour count in %+v", cfg)
	}
	if !(cfg.LiarFraction >= 0 && cfg.LiarFraction <= 1) {
		return nil, fmt.Errorf("agent: liar fraction %v outside [0, 1]", cfg.LiarFraction)
	}
	if cfg.Stake < 0 {
		return nil, fmt.Errorf("agent: negative stake %v", cfg.Stake)
	}
	if cfg.Size() == 0 {
		return nil, fmt.Errorf("agent: empty population")
	}
	thr := cfg.OpportunistThreshold
	if thr == 0 {
		thr = 5 * goods.Unit
	}
	policy := cfg.Policy
	if policy == nil {
		policy = func(int) decision.Policy { return decision.RiskNeutral{} }
	}

	var agents []*Agent
	add := func(kind string, n int, mk func() (Behavior, float64)) {
		for i := 0; i < n; i++ {
			b, honesty := mk()
			id := trust.PeerID(fmt.Sprintf("%s%d", kind, i))
			agents = append(agents, &Agent{
				ID:          id,
				Behavior:    b,
				Policy:      policy(len(agents)),
				Stake:       cfg.Stake,
				TrueHonesty: honesty,
			})
		}
	}
	add("honest", cfg.Honest, func() (Behavior, float64) { return Honest{}, 1.0 })
	add("rational", cfg.Rational, func() (Behavior, float64) { return Rational{}, 0.9 })
	add("opportunist", cfg.Opportunist, func() (Behavior, float64) { return Opportunist{Threshold: thr}, 0.25 })
	add("random", cfg.Random, func() (Behavior, float64) { return RandomDefector{P: randomDefectP}, 1 - randomDefectP })
	add("backstabber", cfg.Backstabber, func() (Behavior, float64) { return Backstabber{After: backstabAfter}, 0.15 })

	if cfg.LiarFraction > 0 {
		n := int(cfg.LiarFraction * float64(len(agents)))
		for _, idx := range rng.Perm(len(agents))[:n] {
			agents[idx].LiesAsWitness = true
		}
	}
	return agents, nil
}

// IDs lists the population's peer IDs.
func IDs(agents []*Agent) []trust.PeerID {
	out := make([]trust.PeerID, len(agents))
	for i, a := range agents {
		out[i] = a.ID
	}
	return out
}
