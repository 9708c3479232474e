package exchange

import (
	"fmt"

	"trustcoop/internal/goods"
)

// PaymentPolicy selects how eagerly the consumer pays between deliveries.
type PaymentPolicy int

// Payment policies. PayLazy pays the minimum that makes the next delivery
// admissible (minimising consumer exposure); PayEager pays up to the band's
// upper edge (minimising supplier exposure). Both produce valid schedules for
// exactly the same delivery orders.
const (
	PayLazy PaymentPolicy = iota + 1
	PayEager
)

// String implements fmt.Stringer.
func (p PaymentPolicy) String() string {
	switch p {
	case PayLazy:
		return "lazy"
	case PayEager:
		return "eager"
	default:
		return fmt.Sprintf("PaymentPolicy(%d)", int(p))
	}
}

// Options tunes schedule construction. The zero value selects lazy
// continuous payments.
type Options struct {
	// Policy selects the payment policy; zero means PayLazy.
	Policy PaymentPolicy
	// Quantum, when positive, rounds intermediate payments up to multiples
	// of this amount where the band permits (the final payment settles the
	// exact remainder).
	Quantum goods.Money
}

// DefaultSearchBudget bounds the exact fallback search's subset-state
// visits per call.
const DefaultSearchBudget = 1 << 18

func (o Options) policy() PaymentPolicy {
	if o.Policy == 0 {
		return PayLazy
	}
	return o.Policy
}

// Plan is a concrete, validated exchange schedule.
type Plan struct {
	Terms  Terms
	Bands  Bands
	Steps  Sequence
	Report Report
}

// PlanForOrder builds the payment interleaving for a fixed delivery order
// and validates it against the bands. The order must be a permutation of the
// bundle items; an order that names an item outside the bundle, or names
// one twice, is rejected before any payment is planned. It returns
// ErrNoFeasibleSequence (wrapped) when the order admits no valid payment
// plan — note that a different order may still be feasible; use Schedule to
// search over orders.
func PlanForOrder(t Terms, b Bands, order []goods.Item, opt Options) (Plan, error) {
	if err := t.Validate(); err != nil {
		return Plan{}, err
	}
	if err := b.Validate(); err != nil {
		return Plan{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	// rangeAt needs delivered prefixes of bundle items.
	idx := sc.itemIndex(t.Bundle)
	for _, it := range order {
		k, ok := idx.lookup(it)
		if !ok || idx.byCost[k] != it {
			return Plan{}, fmt.Errorf("exchange: order item %q is not a bundle item or repeats one", it.ID)
		}
		idx.deliver(k)
	}
	return planForOrderCtx(newBandCtx(t, b), t, b, order, opt, sc, true)
}

// planForOrderCtx is PlanForOrder after input validation, with the band
// context (cached bundle totals) and scratch buffers supplied by the caller
// so Schedule pays for neither more than once across its candidate orders.
// explain selects paymentsForOrder's detailed infeasibility error over the
// unformatted errOrderInfeasible.
func planForOrderCtx(ctx bandCtx, t Terms, b Bands, order []goods.Item, opt Options, sc *schedScratch, explain bool) (Plan, error) {
	if len(order) != t.Bundle.Len() {
		return Plan{}, fmt.Errorf("exchange: order has %d items, bundle has %d", len(order), t.Bundle.Len())
	}
	scratch, err := paymentsForOrder(ctx, t.Price, order, opt, sc.seq[:0], explain)
	sc.seq = scratch[:0] // keep any capacity growth for the next attempt
	if err != nil {
		return Plan{}, err
	}
	// The constructed plan escapes; give it an exactly-sized private slice.
	seq := make(Sequence, len(scratch))
	copy(seq, scratch)
	rep, err := validateSeq(ctx, t, seq, sc.itemIndex(t.Bundle))
	if err != nil {
		return Plan{}, fmt.Errorf("exchange: internal: constructed plan failed validation: %w", err)
	}
	return Plan{Terms: t, Bands: b, Steps: seq, Report: rep}, nil
}

// paymentsForOrder interleaves payments with the given delivery order,
// appending into seq (pass a zero-length buffer to reuse its capacity).
//
// Invariants maintained (see DESIGN.md): the band's upper edge is
// non-decreasing in the delivered set, so once m ≤ hi holds it holds forever;
// the lower edge only binds at delivery instants, where a payment first
// raises m to the edge. A delivery of x from delivered-set D is therefore
// admissible iff lo(D∪{x}) ≤ hi(D), and an order is feasible iff every step
// satisfies that inequality plus the boundary conditions at start and end.
//
// An infeasible order yields a detailed error when explain is set, and the
// preformatted errOrderInfeasible otherwise, for callers that only need to
// know the order failed.
func paymentsForOrder(ctx bandCtx, price goods.Money, order []goods.Item, opt Options, seq Sequence, explain bool) (Sequence, error) {
	var m, cd, wd goods.Money
	lo0, hi0 := ctx.rangeAt(0, 0)
	if m < lo0 || m > hi0 {
		if !explain {
			return seq, errOrderInfeasible
		}
		return seq, fmt.Errorf("%w: initial state outside band [%v, %v]", ErrNoFeasibleSequence, lo0, hi0)
	}
	if need := len(seq) + 2*len(order) + 1; cap(seq) < need {
		grown := make(Sequence, len(seq), need)
		copy(grown, seq)
		seq = grown
	}
	for _, it := range order {
		_, hiHere := ctx.rangeAt(cd, wd)
		loNext, _ := ctx.rangeAt(cd+it.Cost, wd+it.Worth)
		if loNext > hiHere {
			if !explain {
				return seq, errOrderInfeasible
			}
			return seq, fmt.Errorf("%w: delivering %q needs m ≥ %v but band tops out at %v", ErrNoFeasibleSequence, it.ID, loNext, hiHere)
		}
		target := paymentTarget(m, loNext, hiHere, price, opt)
		if target > m {
			seq = append(seq, Step{Kind: StepPay, Amount: target - m})
			m = target
		}
		seq = append(seq, Step{Kind: StepDeliver, Item: it})
		cd += it.Cost
		wd += it.Worth
	}
	if m > price {
		if !explain {
			return seq, errOrderInfeasible
		}
		return seq, fmt.Errorf("%w: cumulative payments %v exceed price %v", ErrNoFeasibleSequence, m, price)
	}
	if m < price {
		loEnd, hiEnd := ctx.rangeAt(cd, wd)
		if price < loEnd || price > hiEnd {
			if !explain {
				return seq, errOrderInfeasible
			}
			return seq, fmt.Errorf("%w: final settlement %v outside band [%v, %v]", ErrNoFeasibleSequence, price, loEnd, hiEnd)
		}
		seq = append(seq, Step{Kind: StepPay, Amount: price - m})
	}
	return seq, nil
}

// errOrderInfeasible is paymentsForOrder's unformatted failure.
var errOrderInfeasible = fmt.Errorf("%w: delivery order admits no payment plan", ErrNoFeasibleSequence)

// paymentTarget computes the cumulative payment to reach before the next
// delivery, according to the payment policy and quantum.
func paymentTarget(m, need, hi, price goods.Money, opt Options) goods.Money {
	cap := goods.MinMoney(hi, price)
	var target goods.Money
	switch opt.policy() {
	case PayEager:
		target = cap
	default: // PayLazy
		target = goods.MaxMoney(m, need)
		if q := opt.Quantum; q > 0 && target > m {
			// Round the increment up to a quantum multiple where the band
			// permits; otherwise keep the exact (unaligned) minimum.
			inc := target - m
			rounded := ((inc + q - 1) / q) * q
			if m+rounded <= cap {
				target = m + rounded
			}
		}
	}
	if target < need {
		target = need
	}
	return target
}
