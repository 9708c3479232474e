package exchange

import (
	"fmt"
	"slices"

	"trustcoop/internal/goods"
)

// Report summarises a validated sequence: the realised worst-case exposures,
// the tightest band margin, and defection temptations. All quantities are
// maxima/minima over every intermediate state of the exchange.
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

// ViolationError describes the first band or structure violation found while
// replaying a sequence.
type ViolationError struct {
	StepIndex int // index into the sequence; −1 for the initial state
	Reason    string
	M         goods.Money // cumulative payment at the violation
	Lo, Hi    goods.Money // band edges at the violation
}

// Error implements the error interface.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("exchange: step %d: %s (m=%v band=[%v, %v])", e.StepIndex, e.Reason, e.M, e.Lo, e.Hi)
}

// validateSeq replays seq against the terms and bands, checking after the
// initial state and every step that the cumulative payment stays inside the
// admissible band, that each bundle item is delivered exactly once, that
// payments are positive, and that the total paid equals the price. It
// returns the replay report, or a *ViolationError describing the first
// violation. The band context and the bundle index come from the caller
// (Schedule reuses pooled instances of both); it marks want's items
// delivered.
func validateSeq(ctx bandCtx, t Terms, seq Sequence, want itemIndex) (Report, error) {
	rep := Report{
		MaxConsumerExposure:   -goods.Unlimited,
		MaxSupplierExposure:   -goods.Unlimited,
		MinSlack:              goods.Unlimited,
		MaxSupplierTemptation: -goods.Unlimited,
		MaxConsumerTemptation: -goods.Unlimited,
	}
	var m, cd, wd goods.Money
	supplierCompletion := t.SupplierGain()
	consumerCompletion := t.ConsumerGain()

	observe := func(idx int) *ViolationError {
		lo, hi := ctx.rangeAt(cd, wd)
		if m < lo || m > hi {
			return &ViolationError{StepIndex: idx, Reason: "payment outside admissible band", M: m, Lo: lo, Hi: hi}
		}
		rep.MaxConsumerExposure = goods.MaxMoney(rep.MaxConsumerExposure, m-wd)
		rep.MaxSupplierExposure = goods.MaxMoney(rep.MaxSupplierExposure, cd-m)
		slack := goods.MinMoney(m.SubSat(lo), hi.SubSat(m))
		rep.MinSlack = goods.MinMoney(rep.MinSlack, slack)
		rep.MaxSupplierTemptation = goods.MaxMoney(rep.MaxSupplierTemptation, (m-cd)-supplierCompletion)
		rep.MaxConsumerTemptation = goods.MaxMoney(rep.MaxConsumerTemptation, (wd-m)-consumerCompletion)
		return nil
	}

	if v := observe(-1); v != nil {
		return Report{}, v
	}
	for i, s := range seq {
		switch s.Kind {
		case StepPay:
			if s.Amount <= 0 {
				return Report{}, &ViolationError{StepIndex: i, Reason: fmt.Sprintf("non-positive payment %v", s.Amount), M: m}
			}
			m += s.Amount
			rep.Payments++
			rep.TotalPaid += s.Amount
		case StepDeliver:
			k, ok := want.lookup(s.Item)
			if !ok {
				return Report{}, &ViolationError{StepIndex: i, Reason: fmt.Sprintf("item %q not in bundle or delivered twice", s.Item.ID), M: m}
			}
			if want.byCost[k] != s.Item {
				return Report{}, &ViolationError{StepIndex: i, Reason: fmt.Sprintf("item %q valuations differ from agreed terms", s.Item.ID), M: m}
			}
			want.deliver(k)
			cd += s.Item.Cost
			wd += s.Item.Worth
			rep.Deliveries++
		default:
			return Report{}, &ViolationError{StepIndex: i, Reason: fmt.Sprintf("unknown step kind %v", s.Kind), M: m}
		}
		if v := observe(i); v != nil {
			return Report{}, v
		}
	}
	if left := len(want.byCost) - rep.Deliveries; left > 0 {
		return Report{}, &ViolationError{StepIndex: len(seq), Reason: fmt.Sprintf("%d items never delivered", left), M: m}
	}
	if m != t.Price {
		return Report{}, &ViolationError{StepIndex: len(seq), Reason: fmt.Sprintf("total paid %v differs from price %v", m, t.Price), M: m}
	}
	return rep, nil
}

// itemIndex is a bundle's items in the canonical (cost, ID) order, with one
// bit per position marking the items already delivered. Bundle IDs are
// unique once the terms are validated, so (cost, ID) names an item exactly,
// and Schedule has already sorted that order for its first candidate.
type itemIndex struct {
	byCost    []goods.Item
	delivered []uint64
}

// lookup returns the position of the bundle item with d's ID, and whether
// that item is still undelivered; its valuations may differ from d's.
func (x itemIndex) lookup(d goods.Item) (int, bool) {
	// Lower bound of d in the (cost, ID) order, written out so the
	// comparison inlines.
	k, n := 0, len(x.byCost)
	for hi := n; k < hi; {
		h := int(uint(k+hi) >> 1)
		if b := x.byCost[h]; b.Cost < d.Cost || (b.Cost == d.Cost && b.ID < d.ID) {
			k = h + 1
		} else {
			hi = h
		}
	}
	if k == n || x.byCost[k].Cost != d.Cost || x.byCost[k].ID != d.ID {
		// Not at d's (cost, ID) slot: the ID may still be in the bundle at
		// another cost.
		if k = slices.IndexFunc(x.byCost, func(b goods.Item) bool { return b.ID == d.ID }); k < 0 {
			return 0, false
		}
	}
	return k, x.delivered[k/64]&(1<<(k%64)) == 0
}

// deliver marks position k delivered.
func (x itemIndex) deliver(k int) { x.delivered[k/64] |= 1 << (k % 64) }
