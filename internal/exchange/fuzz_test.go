package exchange_test

import (
	"errors"
	"fmt"
	"testing"

	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
)

// fuzzTerms builds scheduler inputs from raw fuzz data. Item valuations come
// from byte pairs scaled into money (zero bytes give the zero-cost /
// zero-worth edge items the safety theory pivots on); price, stakes and caps
// stay signed so the validation-rejection paths are exercised too, but are
// folded into the magnitude range Terms.Validate accepts so the interesting
// executions reach the scheduler.
func fuzzTerms(price int64, items []byte) (exchange.Terms, bool) {
	const maxItems = 8
	n := len(items) / 2
	if n > maxItems {
		n = maxItems
	}
	bundle := goods.Bundle{}
	for i := 0; i < n; i++ {
		bundle.Items = append(bundle.Items, goods.Item{
			ID:    fmt.Sprintf("i%d", i),
			Cost:  goods.Money(items[2*i]) * goods.Unit / 4,
			Worth: goods.Money(items[2*i+1]) * goods.Unit / 4,
		})
	}
	price %= int64(goods.Unlimited / 2)
	return exchange.Terms{Bundle: bundle, Price: goods.Money(price)}, n > 0
}

// fuzzMoney folds a raw signed value into a band-magnitude money amount,
// keeping negatives (rejected by Bands.Validate) and zero.
func fuzzMoney(v int64) goods.Money {
	return goods.Money(v % int64(2000*goods.Unit))
}

// FuzzSchedule drives the scheduler with hostile terms and band
// configurations: it must never panic, and every plan it does return must
// conserve totals — the payments sum exactly to the agreed price and the
// deliveries are exactly the bundle, validated step by step against the
// requested bands by the package's own Validate. On valid inputs of up to
// oracleItems items it also checks the verdict against brute force: a plan
// exactly when some delivery order admits one, and a combined band that is
// infeasible whenever ScheduleSafe proves the safety band at the same
// stakes infeasible (the fact the planner relies on to skip it).
func FuzzSchedule(f *testing.F) {
	const oracleItems = 6
	f.Add(int64(10*goods.Unit), []byte{8, 12, 4, 2, 0, 9}, int64(goods.Unit), int64(0), int64(0), int64(0), byte(1))
	f.Add(int64(3*goods.Unit), []byte{0, 5, 3, 0}, int64(0), int64(0), int64(2*goods.Unit), int64(goods.Unit), byte(2))
	f.Add(int64(0), []byte{}, int64(-1), int64(5), int64(5), int64(5), byte(3))
	f.Add(int64(-7), []byte{255, 255, 1, 1}, int64(goods.Unit), int64(goods.Unit), int64(0), int64(0), byte(7))
	f.Fuzz(func(t *testing.T, price int64, items []byte, ds, dc, ls, lc int64, flags byte) {
		terms, _ := fuzzTerms(price, items)
		bands := exchange.Bands{
			Safety:   flags&1 != 0,
			Exposure: flags&2 != 0,
			Stakes:   exchange.Stakes{Supplier: fuzzMoney(ds), Consumer: fuzzMoney(dc)},
			Caps:     exchange.ExposureCaps{Supplier: fuzzMoney(ls), Consumer: fuzzMoney(lc)},
		}
		opt := exchange.Options{}
		if flags&4 != 0 {
			opt.Policy = exchange.PayEager
		}
		plan, err := exchange.Schedule(terms, bands, opt)
		if terms.Validate() == nil && bands.Validate() == nil && terms.Bundle.Len() <= oracleItems {
			if want := exchange.OracleFeasible(terms, bands); want != (err == nil) {
				t.Fatalf("Schedule feasible=%v, permutation oracle=%v (err: %v)\nbands: %+v\nterms: %+v",
					err == nil, want, err, bands, terms)
			}
			combined := exchange.CombinedBands(bands.Stakes, bands.Caps)
			if _, errSafe := exchange.ScheduleSafe(terms, bands.Stakes, opt); errors.Is(errSafe, exchange.ErrNoSafeSequence) && combined.Validate() == nil {
				if _, errComb := exchange.Schedule(terms, combined, opt); !errors.Is(errComb, exchange.ErrNoFeasibleSequence) {
					t.Fatalf("safe infeasible (%v) but combined band gave err=%v\nbands: %+v\nterms: %+v",
						errSafe, errComb, combined, terms)
				}
			}
		}
		if err != nil {
			return // rejection is fine; panics are not
		}

		// Totals conserved: the consumer pays exactly the price…
		if got := plan.Steps.TotalPaid(); got != terms.Price {
			t.Fatalf("total paid %v != price %v\nsteps: %v", got, terms.Price, plan.Steps)
		}
		// …and the supplier delivers exactly the bundle, once each.
		delivered := map[string]int{}
		for _, it := range plan.Steps.Deliveries() {
			delivered[it.ID]++
		}
		if len(plan.Steps.Deliveries()) != terms.Bundle.Len() {
			t.Fatalf("%d deliveries for a %d-item bundle", len(plan.Steps.Deliveries()), terms.Bundle.Len())
		}
		for _, it := range terms.Bundle.Items {
			if delivered[it.ID] != 1 {
				t.Fatalf("item %s delivered %d times", it.ID, delivered[it.ID])
			}
		}
		// Every payment step is a positive increment.
		for _, s := range plan.Steps {
			if s.Kind == exchange.StepPay && s.Amount <= 0 {
				t.Fatalf("non-positive payment step %v", s)
			}
		}
		// And the plan must satisfy the very bands it was scheduled under.
		if _, err := exchange.Validate(terms, bands, plan.Steps); err != nil {
			t.Fatalf("returned plan violates its own bands: %v", err)
		}
	})
}
