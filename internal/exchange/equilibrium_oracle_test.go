package exchange

import (
	"fmt"

	"trustcoop/internal/goods"
)

// This file is the scheduler's safety oracle, and the game-theoretic
// extension the paper names as future work: treating an exchange sequence as
// an extensive-form game in which, before every step it is about to perform,
// a party may instead walk away with the current state. Honest execution is
// a subgame-perfect equilibrium exactly when no reachable deviation pays
// more than the stake it forfeits — which is what the safety band enforces
// by construction. The analysis below computes the deviation structure from
// the running state alone, independently of the band arithmetic, so the
// tests check every plan the scheduler returns against it.

// Deviation is a party's best defection opportunity in a sequence.
type Deviation struct {
	// StepIndex is the step before which the party defects (it is the actor
	// of that step); −1 when the party never acts or never gains.
	StepIndex int
	// Gain is the immediate advantage of defecting there over completing:
	// (defection utility) − (completion utility). Negative means even the
	// best deviation loses money.
	Gain goods.Money
	// Paid and Delivered describe the state at the deviation point.
	Paid      goods.Money
	Delivered int
}

// Equilibrium reports whether honest play of a sequence is subgame-perfect
// for both parties, and each party's best deviation.
type Equilibrium struct {
	SupplierBest Deviation
	ConsumerBest Deviation
	// SupplierHonest holds when the supplier's best deviation gain does not
	// exceed its stake δs; same for the consumer.
	SupplierHonest, ConsumerHonest bool
}

// Holds reports whether honest completion is an equilibrium for both.
func (e Equilibrium) Holds() bool { return e.SupplierHonest && e.ConsumerHonest }

// String implements fmt.Stringer.
func (e Equilibrium) String() string {
	verdict := "honest play is NOT an equilibrium"
	if e.Holds() {
		verdict = "honest play is a subgame-perfect equilibrium"
	}
	return fmt.Sprintf("%s (supplier best deviation %v at step %d; consumer best deviation %v at step %d)",
		verdict, e.SupplierBest.Gain, e.SupplierBest.StepIndex, e.ConsumerBest.Gain, e.ConsumerBest.StepIndex)
}

// Analyze walks the sequence and computes both parties' best deviations
// under the given stakes. The sequence must be structurally valid for the
// terms (use Validate first for untrusted input); Analyze itself only needs
// the running state, so it accepts any step list and reports an error for
// malformed steps.
//
// Deviation timing: a party can only usefully defect at a point where it is
// about to give something up — the consumer before one of its payments, the
// supplier before one of its deliveries. (Defecting while the other side is
// about to act is dominated by waiting: the other side's action only
// improves the defector's state.)
func Analyze(t Terms, s Stakes, seq Sequence) (Equilibrium, error) {
	if err := t.Validate(); err != nil {
		return Equilibrium{}, err
	}
	supplierCompletion := t.SupplierGain()
	consumerCompletion := t.ConsumerGain()

	eq := Equilibrium{
		SupplierBest: Deviation{StepIndex: -1, Gain: -goods.Unlimited},
		ConsumerBest: Deviation{StepIndex: -1, Gain: -goods.Unlimited},
	}
	var m, cd, wd goods.Money
	delivered := 0
	for i, step := range seq {
		switch step.Kind {
		case StepPay:
			// The consumer is about to pay: defecting keeps Vc(D) − m now.
			gain := (wd - m) - consumerCompletion
			if gain > eq.ConsumerBest.Gain {
				eq.ConsumerBest = Deviation{StepIndex: i, Gain: gain, Paid: m, Delivered: delivered}
			}
			m += step.Amount
		case StepDeliver:
			// The supplier is about to sink Vs(x): defecting keeps m − Vs(D).
			gain := (m - cd) - supplierCompletion
			if gain > eq.SupplierBest.Gain {
				eq.SupplierBest = Deviation{StepIndex: i, Gain: gain, Paid: m, Delivered: delivered}
			}
			cd += step.Item.Cost
			wd += step.Item.Worth
			delivered++
		default:
			return Equilibrium{}, fmt.Errorf("exchange: analyze: step %d has unknown kind %v", i, step.Kind)
		}
	}
	eq.SupplierHonest = eq.SupplierBest.Gain <= s.Supplier
	eq.ConsumerHonest = eq.ConsumerBest.Gain <= s.Consumer
	return eq, nil
}

// WorstCaseLoss computes what each party loses if the other plays its best
// deviation — the quantities the trust-aware exposure caps are bought
// against. A negative loss means the victim still comes out ahead at that
// point.
func WorstCaseLoss(t Terms, s Stakes, seq Sequence) (supplierLoss, consumerLoss goods.Money, err error) {
	eq, err := Analyze(t, s, seq)
	if err != nil {
		return 0, 0, err
	}
	// If the consumer defects at its best deviation, the supplier has sunk
	// the delivered cost against the payments received there.
	if d := eq.ConsumerBest; d.StepIndex >= 0 {
		cost := deliveredCostBefore(seq, d.StepIndex)
		supplierLoss = (cost - d.Paid).ClampNonNeg()
	}
	if d := eq.SupplierBest; d.StepIndex >= 0 {
		worth := deliveredWorthBefore(seq, d.StepIndex)
		consumerLoss = (d.Paid - worth).ClampNonNeg()
	}
	return supplierLoss, consumerLoss, nil
}

func deliveredCostBefore(seq Sequence, idx int) goods.Money {
	var sum goods.Money
	for i := 0; i < idx && i < len(seq); i++ {
		if seq[i].Kind == StepDeliver {
			sum += seq[i].Item.Cost
		}
	}
	return sum
}

func deliveredWorthBefore(seq Sequence, idx int) goods.Money {
	var sum goods.Money
	for i := 0; i < idx && i < len(seq); i++ {
		if seq[i].Kind == StepDeliver {
			sum += seq[i].Item.Worth
		}
	}
	return sum
}
