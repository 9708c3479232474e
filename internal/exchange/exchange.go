// Package exchange implements the safe-exchange theory the paper builds on
// (Sandholm [4], paper §2) and the paper's contribution (§3): scheduling the
// interleaving of item deliveries and payments so that, at every point of the
// exchange, configurable bands on the cumulative payment hold.
//
// Two band families are supported, separately or combined:
//
//   - Safety (Sandholm): at every state (D delivered, m paid) both partners'
//     future gains from completing exceed their gains from defecting now:
//     Pmin(D) − δc ≤ m ≤ Pmax(D) + δs, where Pmin(D) = P − Vc(G\D),
//     Pmax(D) = P − Vs(G\D) and δs, δc are the reputation stakes the parties
//     forfeit by defecting. With δ = 0 this is the isolated-exchange case in
//     which the paper notes no safe sequence can exist (the last delivery
//     would require a zero-cost item).
//
//   - Exposure (trust-aware, the paper's §3): each party bounds how much it
//     accepts to be indebted. The consumer's exposure m − Vc(D) stays ≤ Lc
//     and the supplier's exposure Vs(D) − m stays ≤ Ls, i.e.
//     Vs(D) − Ls ≤ m ≤ Vc(D) + Lc. The caps derive from trust estimates and
//     risk averseness (see internal/decision).
//
// The schedulers are quadratic-time, as the paper claims: delivery orders are
// produced by Lawler-style greedy rules (provably optimal when every item has
// non-negative surplus) with an exact subset-memoised search as fallback and
// as a test oracle.
package exchange

import (
	"errors"
	"fmt"

	"trustcoop/internal/goods"
)

// StepKind discriminates the two kinds of exchange actions.
type StepKind int

// The two actions of an exchange sequence: the consumer pays an amount, or
// the supplier delivers an item.
const (
	StepPay StepKind = iota + 1
	StepDeliver
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepPay:
		return "pay"
	case StepDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one atomic action of an exchange sequence.
type Step struct {
	Kind   StepKind
	Amount goods.Money // for StepPay: the incremental payment, > 0
	Item   goods.Item  // for StepDeliver: the delivered item
}

// String renders the step for logs and the safex CLI.
func (s Step) String() string {
	switch s.Kind {
	case StepPay:
		return fmt.Sprintf("pay %v", s.Amount)
	case StepDeliver:
		return fmt.Sprintf("deliver %s (cost %v, worth %v)", s.Item.ID, s.Item.Cost, s.Item.Worth)
	default:
		return s.Kind.String()
	}
}

// Sequence is an ordered interleaving of payments and deliveries.
type Sequence []Step

// Errors reported by the schedulers and validators.
var (
	// ErrNoSafeSequence is returned when no ordering satisfies the safety
	// band — the paper's motivating case for going trust-aware.
	ErrNoSafeSequence = errors.New("exchange: no safe sequence exists")
	// ErrNoFeasibleSequence is returned when no ordering satisfies the
	// requested bands (trust-aware or combined).
	ErrNoFeasibleSequence = errors.New("exchange: no feasible sequence exists")
	// ErrBudgetExhausted is returned when the exact search gave up before
	// proving infeasibility; a sequence may or may not exist.
	ErrBudgetExhausted = errors.New("exchange: search budget exhausted before a decision was reached")
	// ErrNoBands is returned when neither band family is enabled.
	ErrNoBands = errors.New("exchange: no constraint band enabled")
)
