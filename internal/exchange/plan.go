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

// Report summarises a plan: the realised worst-case exposures, the tightest
// band margin, and defection temptations. All quantities are maxima/minima
// over every intermediate state of the exchange.
type Report struct {
	Payments   int
	Deliveries int
	TotalPaid  goods.Money

	// MaxConsumerExposure is max over states of m − Vc(D): the most the
	// consumer stood to lose had the supplier defected at the worst moment.
	MaxConsumerExposure goods.Money
	// MaxSupplierExposure is max over states of Vs(D) − m.
	MaxSupplierExposure goods.Money
	// MinSlack is the minimum over states of distance to either band edge —
	// how close the schedule sails to a violation.
	MinSlack goods.Money
	// MaxSupplierTemptation is max over states of the supplier's defection
	// gain minus completion gain, (m − Vs(D)) − (P − Vs(G)). A safe schedule
	// keeps this ≤ δs.
	MaxSupplierTemptation goods.Money
	// MaxConsumerTemptation is max over states of (Vc(D) − m) − (Vc(G) − P).
	MaxConsumerTemptation goods.Money
}

// emptyReport is the report of no state yet: every maximum at its floor and
// the slack at its ceiling, so the first observed state sets each one.
var emptyReport = Report{
	MaxConsumerExposure:   -goods.Unlimited,
	MaxSupplierExposure:   -goods.Unlimited,
	MinSlack:              goods.Unlimited,
	MaxSupplierTemptation: -goods.Unlimited,
	MaxConsumerTemptation: -goods.Unlimited,
}

// observe folds one state of the exchange into the report: m paid, items of
// total cost cd and worth wd delivered, and the band [lo, hi] at that
// delivered set.
func (r *Report) observe(c bandCtx, m, cd, wd, lo, hi goods.Money) {
	r.MaxConsumerExposure = goods.MaxMoney(r.MaxConsumerExposure, m-wd)
	r.MaxSupplierExposure = goods.MaxMoney(r.MaxSupplierExposure, cd-m)
	r.MinSlack = goods.MinMoney(r.MinSlack, goods.MinMoney(m.SubSat(lo), hi.SubSat(m)))
	r.MaxSupplierTemptation = goods.MaxMoney(r.MaxSupplierTemptation, (m-cd)-(c.price-c.totalCost))
	r.MaxConsumerTemptation = goods.MaxMoney(r.MaxConsumerTemptation, (wd-m)-(c.totalWorth-c.price))
}

// PlanForOrder builds the payment interleaving for a fixed delivery order
// and validates it against the bands. The order must be a permutation of the
// bundle items; an order that names an item outside the bundle, or names
// one twice, is rejected before any payment is planned. It returns
// ErrNoFeasibleSequence (wrapped) when the order admits no valid payment
// plan — note that a different order may still be feasible; use Schedule to
// search over orders.
func PlanForOrder(t Terms, b Bands, order []goods.Item, opt Options) (Plan, error) {
	ctx, err := t.validate()
	if err != nil {
		return Plan{}, err
	}
	if err := b.Validate(); err != nil {
		return Plan{}, err
	}
	ctx.bands = b
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
	return planForOrderCtx(ctx, nil, t, order, opt, sc, true)
}

// planForOrderCtx is PlanForOrder after input validation, with the band
// context (the bands and the bundle's totals) and scratch buffers supplied
// by the caller so Schedule pays for neither more than once across its
// candidate orders. The plan's steps are written into dst when it has room,
// and into a new slice of their exact length otherwise; dst is left
// untouched when no plan is returned. explain selects paymentsForOrder's
// detailed infeasibility error over the unformatted errOrderInfeasible.
func planForOrderCtx(ctx bandCtx, dst Sequence, t Terms, order []goods.Item, opt Options, sc *schedScratch, explain bool) (Plan, error) {
	if len(order) != t.Bundle.Len() {
		return Plan{}, fmt.Errorf("exchange: order has %d items, bundle has %d", len(order), t.Bundle.Len())
	}
	built, rep, err := paymentsForOrder(ctx, order, opt, sc.seq[:0], explain)
	sc.seq = built[:0] // keep any capacity growth for the next attempt
	if err != nil {
		return Plan{}, err
	}
	seq := dst[:0]
	if cap(seq) < len(built) {
		seq = make(Sequence, 0, len(built))
	}
	seq = append(seq, built...)
	return Plan{Terms: t, Bands: ctx.bands, Steps: seq, Report: rep}, nil
}

// paymentsForOrder interleaves payments with the given delivery order,
// appending into seq (pass a zero-length buffer to reuse its capacity), and
// reports the plan it builds.
//
// Invariants maintained (see DESIGN.md): the band's upper edge is
// non-decreasing in the delivered set, so once m ≤ hi holds it holds forever;
// the lower edge only binds at delivery instants, where a payment first
// raises m to the edge. A delivery of x from delivered-set D is therefore
// admissible iff lo(D∪{x}) ≤ hi(D), and an order is feasible iff every step
// satisfies that inequality plus the boundary conditions at start and end.
// So every state the construction reaches lies inside its band, and the
// report observes each one as it is reached: the initial state, each payment
// at the band of the delivered set it is made in, and each delivery at the
// band of the set it completes. That band is the next delivery's starting
// band, so each step evaluates one band.
//
// An infeasible order yields a detailed error when explain is set, and the
// preformatted errOrderInfeasible otherwise, for callers that only need to
// know the order failed.
func paymentsForOrder(ctx bandCtx, order []goods.Item, opt Options, seq Sequence, explain bool) (Sequence, Report, error) {
	price := ctx.price
	var m, cd, wd goods.Money
	lo, hi := ctx.rangeAt(0, 0)
	if m < lo || m > hi {
		if !explain {
			return seq, Report{}, errOrderInfeasible
		}
		return seq, Report{}, fmt.Errorf("%w: initial state outside band [%v, %v]", ErrNoFeasibleSequence, lo, hi)
	}
	if need := len(seq) + 2*len(order) + 1; cap(seq) < need {
		grown := make(Sequence, len(seq), need)
		copy(grown, seq)
		seq = grown
	}
	rep := emptyReport
	rep.observe(ctx, m, cd, wd, lo, hi)
	for _, it := range order {
		loNext, hiNext := ctx.rangeAt(cd+it.Cost, wd+it.Worth)
		if loNext > hi {
			if !explain {
				return seq, Report{}, errOrderInfeasible
			}
			return seq, Report{}, fmt.Errorf("%w: delivering %q needs m ≥ %v but band tops out at %v", ErrNoFeasibleSequence, it.ID, loNext, hi)
		}
		if target := paymentTarget(m, loNext, hi, price, opt); target > m {
			seq = append(seq, Step{Kind: StepPay, Amount: target - m})
			m = target
			rep.Payments++
			rep.observe(ctx, m, cd, wd, lo, hi)
		}
		seq = append(seq, Step{Kind: StepDeliver, Item: it})
		cd += it.Cost
		wd += it.Worth
		lo, hi = loNext, hiNext
		rep.Deliveries++
		rep.observe(ctx, m, cd, wd, lo, hi)
	}
	if m > price {
		if !explain {
			return seq, Report{}, errOrderInfeasible
		}
		return seq, Report{}, fmt.Errorf("%w: cumulative payments %v exceed price %v", ErrNoFeasibleSequence, m, price)
	}
	if m < price {
		if price < lo || price > hi {
			if !explain {
				return seq, Report{}, errOrderInfeasible
			}
			return seq, Report{}, fmt.Errorf("%w: final settlement %v outside band [%v, %v]", ErrNoFeasibleSequence, price, lo, hi)
		}
		seq = append(seq, Step{Kind: StepPay, Amount: price - m})
		m = price
		rep.Payments++
		rep.observe(ctx, m, cd, wd, lo, hi)
	}
	rep.TotalPaid = m
	return seq, rep, nil
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
