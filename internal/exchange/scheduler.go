package exchange

import (
	"errors"
	"fmt"

	"trustcoop/internal/goods"
)

// ScheduleSafe finds a safe exchange sequence under reputation stakes
// (paper §2): a schedule from which neither rational party ever profits by
// defecting. With zero stakes this fails for every bundle whose last item
// would have positive cost — the paper's isolated-exchange impossibility.
// It returns ErrNoSafeSequence (wrapped) when none exists.
func ScheduleSafe(t Terms, s Stakes, opt Options) (Plan, error) {
	return ScheduleSafeInto(nil, t, s, opt)
}

// ScheduleSafeInto is ScheduleSafe writing the plan's steps into dst when it
// has room, so a caller that recycles a finished plan's steps allocates no
// plan. dst is left untouched when no plan is returned.
func ScheduleSafeInto(dst Sequence, t Terms, s Stakes, opt Options) (Plan, error) {
	_, plan, err := scheduleSafe(dst, t, s, opt)
	if errors.Is(err, ErrNoFeasibleSequence) {
		return Plan{}, &noSafeError{stakes: s}
	}
	return plan, err
}

// scheduleSafe validates the terms and the safe bands under s and schedules
// inside those bands, writing the plan into dst as schedule does. It also
// returns the validated terms' band context, for a second attempt under
// other bands.
func scheduleSafe(dst Sequence, t Terms, s Stakes, opt Options) (bandCtx, Plan, error) {
	ctx, err := t.validate()
	if err != nil {
		return ctx, Plan{}, err
	}
	ctx.bands = SafeBands(s)
	if err := ctx.bands.Validate(); err != nil {
		return ctx, Plan{}, err
	}
	plan, err := schedule(ctx, dst, t, opt)
	return ctx, plan, err
}

// ScheduleSafeElse is the planner's two attempts in one call: it validates
// the terms once and tries the safe bands, exactly as ScheduleSafe does. Only
// when that attempt proves no safe sequence exists does it call caps, once,
// and schedule inside the returned exposure caps, as ScheduleTrustAware does.
// safe reports which attempt produced the plan. The results equal
// ScheduleSafe followed, on ErrNoSafeSequence, by ScheduleTrustAware — with
// no error built between them, no second validation of the terms and the
// bundle's totals summed once for both attempts. The plan's steps are
// written into dst when it has room (pass nil for a fresh slice), and dst
// is left untouched when no plan is returned.
func ScheduleSafeElse(dst Sequence, t Terms, s Stakes, opt Options, caps func() ExposureCaps) (plan Plan, safe bool, err error) {
	ctx, plan, err := scheduleSafe(dst, t, s, opt)
	if !errors.Is(err, ErrNoFeasibleSequence) {
		return plan, err == nil, err
	}
	ctx.bands = TrustAwareBands(caps())
	if err := ctx.bands.Validate(); err != nil {
		return Plan{}, false, err
	}
	plan, err = schedule(ctx, dst, t, opt)
	return plan, false, err
}

// noSafeError is ScheduleSafe's ErrNoSafeSequence together with the stakes
// it was proven at. It formats only when read: callers mostly just test it
// with errors.Is.
type noSafeError struct{ stakes Stakes }

func (e *noSafeError) Error() string {
	return fmt.Sprintf("%v (stakes δs=%v δc=%v)", ErrNoSafeSequence, e.stakes.Supplier, e.stakes.Consumer)
}

func (e *noSafeError) Unwrap() error { return ErrNoSafeSequence }

// ScheduleTrustAware finds an exchange sequence that keeps each party's
// worst-case exposure within its trust-derived cap (paper §3). It returns
// ErrNoFeasibleSequence (wrapped) when none exists.
func ScheduleTrustAware(t Terms, c ExposureCaps, opt Options) (Plan, error) {
	return Schedule(t, TrustAwareBands(c), opt)
}

// Schedule finds an exchange sequence satisfying the requested bands.
//
// Infeasibility is proven, and delivery orders tried, in this sequence:
//  1. the last-delivery boundary: every order must end on some item x with
//     lo(G) ≤ hi(G∖{x}); when no item qualifies, no order exists (O(n)).
//     At zero stakes this is the paper's isolated-exchange impossibility;
//  2. the greedy order that is provably optimal for the enabled band family
//     when every item has non-negative surplus (Lawler order for safety,
//     ascending-cost for exposure) — under those conditions its failure is
//     itself the proof;
//  3. a small portfolio of alternative orders (covers most mixed instances);
//  4. an exact memoised subset search, bounded by DefaultSearchBudget.
//
// The common case costs O(n log n), a sort and a linear payment walk; the
// exact search only runs when every heuristic order fails. The hot path is allocation-lean: sorted
// item views and the payment construction buffer come from a pooled
// scratch, and candidate orders are derived lazily from at most two sorts,
// so a call that succeeds on its first candidate allocates only the
// returned plan. The plan's Report is accumulated by the pass that builds
// the plan, which evaluates one band per step; nothing replays the plan. A
// rejected candidate order formats no message, so a call that fails by one
// of the first two proofs allocates nothing; the error names the proof that
// fired.
func Schedule(t Terms, b Bands, opt Options) (Plan, error) {
	ctx, err := t.validate()
	if err != nil {
		return Plan{}, err
	}
	if err := b.Validate(); err != nil {
		return Plan{}, err
	}
	ctx.bands = b
	return schedule(ctx, nil, t, opt)
}

// schedule is Schedule on terms and bands already validated, whose band
// context ctx holds (rangeAt's arithmetic relies on both), writing the
// plan's steps into dst as planForOrderCtx does.
func schedule(ctx bandCtx, dst Sequence, t Terms, opt Options) (Plan, error) {
	b := ctx.bands
	if !ctx.someItemCanGoLast(t.Bundle.Items) {
		return Plan{}, errNoLastDelivery
	}
	sc := getScratch()
	defer putScratch(sc)
	for i, kind := range candidateKinds(b) {
		plan, err := planForOrderCtx(ctx, dst, t, sc.orderOf(kind, t.Bundle), opt, sc, false)
		if err == nil {
			return plan, nil
		}
		if !errors.Is(err, ErrNoFeasibleSequence) {
			return Plan{}, err
		}
		if i == 0 && b.Safety != b.Exposure && allNonNegativeSurplus(t.Bundle) {
			return Plan{}, errGreedyOptimal
		}
	}
	order, err := searchOrder(t, b, DefaultSearchBudget)
	if err != nil {
		return Plan{}, err
	}
	return planForOrderCtx(ctx, dst, t, order, opt, sc, true)
}

// Schedule's static infeasibility proofs: fixed messages, so returning one
// allocates nothing.
var (
	errNoLastDelivery = fmt.Errorf("%w: proven at the boundary (no item can be delivered last)", ErrNoFeasibleSequence)
	errGreedyOptimal  = fmt.Errorf("%w: proven by optimal greedy order (all item surpluses ≥ 0)", ErrNoFeasibleSequence)
)

// someItemCanGoLast reports whether any item x satisfies lo(G) ≤ hi(G∖{x}),
// the admissibility of delivering x last. It is necessary for every order,
// as paymentsForOrder and searchOrder check it at the final step, so a false
// result proves infeasibility and a true one decides nothing.
func (c bandCtx) someItemCanGoLast(items []goods.Item) bool {
	loAll, _ := c.rangeAt(c.totalCost, c.totalWorth)
	for _, it := range items {
		if _, hi := c.rangeAt(c.totalCost-it.Cost, c.totalWorth-it.Worth); loAll <= hi {
			return true
		}
	}
	return false
}

// lawlerOrder computes the delivery order that maximises the minimum safety
// slack, by Lawler's rule for 1||f_max: repeatedly place *last* the remaining
// item with the smallest cost Vs (ties broken by ID). The resulting forward
// order delivers items in descending supplier cost. Optimal whenever every
// item surplus Vc(x) − Vs(x) is non-negative (see DESIGN.md for the
// reduction); a heuristic otherwise.
//
// Because the per-step selection criterion (min Vs among remaining) does not
// depend on what has already been placed, the paper's O(n²) greedy
// collapses to a single sort; the tests keep its literal quadratic form as
// the oracle for this one.
func lawlerOrder(b goods.Bundle) []goods.Item {
	asc := b.SortedByCost()
	return reverseItems(asc)
}

func reverseItems(items []goods.Item) []goods.Item {
	out := make([]goods.Item, len(items))
	for i, it := range items {
		out[len(items)-1-i] = it
	}
	return out
}

func allNonNegativeSurplus(b goods.Bundle) bool {
	for _, it := range b.Items {
		if it.Surplus() < 0 {
			return false
		}
	}
	return true
}
