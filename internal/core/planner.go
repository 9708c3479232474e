// Package core assembles the paper's pipeline (Figure 1) into the headline
// API: reputation-fed trust estimates and risk policies (decision making)
// turn into exposure caps, and the exchange scheduler finds the sequence of
// deliveries and payments both parties can accept — fully safe when
// possible, trust-aware (paper §3) when not.
package core

import (
	"errors"
	"fmt"

	"trustcoop/internal/decision"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

// Participant is one side of a prospective exchange: its identity, its view
// of the world (trust estimator), its risk policy, and the future business
// it would forfeit by defecting.
type Participant struct {
	ID        trust.PeerID
	Estimator trust.Estimator
	Policy    decision.Policy
	// Stake is the reputation value the participant forfeits by defecting;
	// common knowledge, so it widens the safety band for both sides.
	Stake goods.Money
}

// Mode says which band family produced the plan.
type Mode int

// Planning outcomes: ModeSafe means no trust was needed (the schedule is
// defection-proof for rational parties); ModeTrustAware means the parties
// rely on bounded exposure backed by trust.
const (
	ModeSafe Mode = iota + 1
	ModeTrustAware
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSafe:
		return "safe"
	case ModeTrustAware:
		return "trust-aware"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PlanResult is a scheduled exchange plus the trust context that justified
// it.
type PlanResult struct {
	Plan exchange.Plan
	Mode Mode
	// TrustInSupplier is the consumer's estimate of the supplier (and vice
	// versa); meaningful for ModeTrustAware.
	TrustInSupplier, TrustInConsumer float64
	// Caps are the exposure limits derived from trust and risk policies.
	Caps exchange.ExposureCaps
	// ExpectedConsumerGain and ExpectedSupplierGain are the trust-discounted
	// gains (the paper's "decreased expected gains").
	ExpectedConsumerGain, ExpectedSupplierGain goods.Money
}

// ErrNoAgreement is returned when no schedule exists that both parties can
// accept under their trust and risk constraints.
var ErrNoAgreement = errors.New("core: no mutually acceptable exchange sequence")

// Planner runs the pipeline. The zero value is ready to use.
type Planner struct {
	// Options forwards scheduling options (payment policy, quantum, search
	// budget).
	Options exchange.Options
	// RequireBeneficial rejects terms where either party's nominal gain is
	// negative. Default false keeps the library permissive; the marketplace
	// sets it.
	RequireBeneficial bool
}

// PlanExchange schedules the terms between the two participants:
//
//  1. Try a fully safe schedule under the parties' stakes — if one exists,
//     no trust is required at all.
//  2. Otherwise compute each party's trust in the other, derive exposure
//     caps via the risk policies, and search for a schedule that respects
//     both caps (the paper's pure exposure band). The stake-widened safety
//     band is not kept as an extra constraint: step 1 proved it
//     unschedulable, and intersecting it with the caps only narrows it.
//
// It returns ErrNoAgreement (wrapped, with the tightest caps attempted) when
// neither succeeds.
func (pl Planner) PlanExchange(supplier, consumer Participant, terms exchange.Terms) (PlanResult, error) {
	return pl.PlanExchangeInto(nil, supplier, consumer, terms)
}

// PlanExchangeInto is PlanExchange writing the plan's steps into dst when it
// has room, so a caller that recycles a finished plan's steps allocates no
// plan. dst is left untouched when no plan is returned.
func (pl Planner) PlanExchangeInto(dst exchange.Sequence, supplier, consumer Participant, terms exchange.Terms) (PlanResult, error) {
	supGain, conGain := terms.SupplierGain(), terms.ConsumerGain()
	// ScheduleSafeElse validates the terms; only a rejection before it must
	// tell invalid terms from unprofitable ones itself.
	if pl.RequireBeneficial && (supGain < 0 || conGain < 0) {
		if err := terms.Validate(); err != nil {
			return PlanResult{}, err
		}
		return PlanResult{}, fmt.Errorf("%w: terms not mutually beneficial (supplier %v, consumer %v)",
			ErrNoAgreement, supGain, conGain)
	}
	stakes := exchange.Stakes{Supplier: supplier.Stake, Consumer: consumer.Stake}

	// Trust-aware path, taken only once no safe schedule exists: each party
	// caps its own exposure based on its trust in the other and its own risk
	// averseness. The estimators are consulted inside the callback, so a safe
	// session reads no trust at all.
	var pInSupplier, pInConsumer float64
	var caps exchange.ExposureCaps
	trustAware := false
	plan, safe, err := exchange.ScheduleSafeElse(dst, terms, stakes, pl.Options, func() exchange.ExposureCaps {
		trustAware = true
		pInSupplier = estimate(consumer.Estimator, supplier.ID)
		pInConsumer = estimate(supplier.Estimator, consumer.ID)
		caps = exchange.ExposureCaps{
			Supplier: supplier.Policy.ExposureLimit(pInConsumer, supGain),
			Consumer: consumer.Policy.ExposureLimit(pInSupplier, conGain),
		}
		return caps
	})
	switch {
	case safe:
		return PlanResult{Plan: plan, Mode: ModeSafe}, nil
	case !trustAware:
		return PlanResult{}, err // invalid terms, or the safe search gave up
	case errors.Is(err, exchange.ErrNoFeasibleSequence) || errors.Is(err, exchange.ErrBudgetExhausted):
		return PlanResult{}, fmt.Errorf("%w: caps Ls=%v Lc=%v (trust %0.2f/%0.2f): %v",
			ErrNoAgreement, caps.Supplier, caps.Consumer, pInConsumer, pInSupplier, err)
	case err != nil:
		return PlanResult{}, err
	}
	return PlanResult{
		Plan:                 plan,
		Mode:                 ModeTrustAware,
		TrustInSupplier:      pInSupplier,
		TrustInConsumer:      pInConsumer,
		Caps:                 caps,
		ExpectedConsumerGain: decision.ExpectedGain(pInSupplier, conGain, plan.Report.MaxConsumerExposure),
		ExpectedSupplierGain: decision.ExpectedGain(pInConsumer, supGain, plan.Report.MaxSupplierExposure),
	}, nil
}

func estimate(e trust.Estimator, peer trust.PeerID) float64 {
	if e == nil {
		return 0
	}
	return e.Estimate(peer).P
}
