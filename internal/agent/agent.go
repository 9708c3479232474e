// Package agent models the members of the online community: behaviour
// profiles that decide, at every point of an exchange, whether to keep
// cooperating or to defect, plus population builders for the experiments.
package agent

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

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
// rng only drives liar selection).
//
// The agents share one backing array and their IDs one string, and agents
// of a kind share one Behavior value, so a call makes a handful of
// allocations whatever the population size.
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
	kinds := [...]struct {
		name     string
		n        int
		behavior Behavior
	}{
		{"honest", cfg.Honest, Honest{}},
		{"rational", cfg.Rational, Rational{}},
		{"opportunist", cfg.Opportunist, Opportunist{Threshold: thr}},
		{"random", cfg.Random, RandomDefector{P: randomDefectP}},
		{"backstabber", cfg.Backstabber, Backstabber{After: backstabAfter}},
	}

	// An agent's ID is its kind's name and its decimal rank within the kind.
	size := 0
	for _, k := range kinds {
		size += k.n*len(k.name) + digitsBelow(k.n)
	}
	var ids strings.Builder
	ids.Grow(size)
	var num [20]byte
	for _, k := range kinds {
		for j := range k.n {
			ids.WriteString(k.name)
			ids.Write(strconv.AppendInt(num[:0], int64(j), 10))
		}
	}
	all, off := ids.String(), 0

	backing := make([]Agent, cfg.Size())
	agents := make([]*Agent, len(backing))
	i := 0
	for _, k := range kinds {
		width, next := len(k.name)+1, 10 // ID length, and the rank where it grows
		for j := range k.n {
			if j == next {
				width, next = width+1, next*10
			}
			a := &backing[i]
			a.ID = trust.PeerID(all[off : off+width])
			a.Behavior, a.Stake = k.behavior, cfg.Stake
			if cfg.Policy != nil {
				a.Policy = cfg.Policy(i)
			} else {
				a.Policy = decision.RiskNeutral{}
			}
			agents[i] = a
			off += width
			i++
		}
	}

	if cfg.LiarFraction > 0 {
		n := int(cfg.LiarFraction * float64(len(agents)))
		for _, idx := range rng.Perm(len(agents))[:n] {
			agents[idx].LiesAsWitness = true
		}
	}
	return agents, nil
}

// digitsBelow is the number of decimal digits in 0, 1, …, n−1.
func digitsBelow(n int) int {
	total := n
	for p := 10; p < n; p *= 10 {
		total += n - p
	}
	return total
}

// IDs lists the population's peer IDs.
func IDs(agents []*Agent) []trust.PeerID {
	out := make([]trust.PeerID, len(agents))
	for i, a := range agents {
		out[i] = a.ID
	}
	return out
}
