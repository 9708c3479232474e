package exchange_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
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
// requested bands by the package's own Validate, whose replayed report must
// equal the one the scheduler built with the plan. On valid inputs of up to
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
	// Feasible seeds, so the seed corpus alone checks returned plans and
	// their reports: each band family, both payment policies.
	f.Add(int64(10*goods.Unit), []byte{8, 12, 4, 2, 0, 9}, int64(0), int64(0), int64(6*goods.Unit), int64(3*goods.Unit), byte(2))
	f.Add(int64(10*goods.Unit), []byte{8, 12, 4, 2, 0, 9}, int64(0), int64(0), int64(6*goods.Unit), int64(3*goods.Unit), byte(6))
	f.Add(int64(10*goods.Unit), []byte{8, 12, 4, 2, 0, 9}, int64(5*goods.Unit), int64(5*goods.Unit), int64(0), int64(0), byte(1))
	f.Add(int64(10*goods.Unit), []byte{8, 12, 4, 2, 0, 9}, int64(5*goods.Unit), int64(2*goods.Unit), int64(6*goods.Unit), int64(6*goods.Unit), byte(7))
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
		// And the plan must satisfy the very bands it was scheduled under,
		// with the report its construction accumulated.
		rep, err := exchange.Validate(terms, bands, plan.Steps)
		if err != nil {
			t.Fatalf("returned plan violates its own bands: %v", err)
		}
		if rep != plan.Report {
			t.Fatalf("constructed report %+v, replay %+v\nsteps: %v", plan.Report, rep, plan.Steps)
		}
	})
}

// FuzzScheduleSafeElse holds the planner's one-pass entry point to the two
// calls it replaces: ScheduleSafe, then — only on ErrNoSafeSequence —
// ScheduleTrustAware under the caps. Plan, error text and which attempt
// produced the plan must match, and the caps callback must run exactly once
// when the safe attempt proves no safe sequence exists, and never otherwise.
// Flag bits 8 and 16 swap in math.MaxInt64 and Unlimited slacks, the values
// rangeAt's overflow checks exist for. Flag bit 32 plans into a dirty
// destination with room for every plan: a returned plan is written into
// it, and it is left untouched when no plan is returned.
func FuzzScheduleSafeElse(f *testing.F) {
	f.Add(int64(10*goods.Unit), []byte{8, 12, 4, 2, 0, 9}, int64(goods.Unit), int64(0), int64(0), int64(0), byte(0))
	f.Add(int64(3*goods.Unit), []byte{0, 5, 3, 0}, int64(0), int64(0), int64(2*goods.Unit), int64(goods.Unit), byte(4))
	f.Add(int64(0), []byte{}, int64(-1), int64(5), int64(5), int64(5), byte(0))
	f.Add(int64(5*goods.Unit), []byte{9, 12, 7, 9}, int64(0), int64(0), int64(-1), int64(0), byte(0))
	f.Add(int64(goods.Unlimited/3), []byte{1, 1}, int64(0), int64(0), int64(0), int64(0), byte(24))
	f.Add(int64(10*goods.Unit), []byte{8, 12, 4, 2, 0, 9}, int64(goods.Unit), int64(0), int64(0), int64(0), byte(32))
	f.Add(int64(3*goods.Unit), []byte{0, 5, 3, 0}, int64(0), int64(0), int64(2*goods.Unit), int64(goods.Unit), byte(36))
	f.Add(int64(5*goods.Unit), []byte{9, 12, 7, 9}, int64(0), int64(0), int64(-1), int64(0), byte(32))
	f.Fuzz(func(t *testing.T, price int64, items []byte, ds, dc, ls, lc int64, flags byte) {
		terms, _ := fuzzTerms(price, items)
		stakes := exchange.Stakes{Supplier: fuzzMoney(ds), Consumer: fuzzMoney(dc)}
		caps := exchange.ExposureCaps{Supplier: fuzzMoney(ls), Consumer: fuzzMoney(lc)}
		if flags&8 != 0 {
			caps.Consumer = math.MaxInt64
		}
		if flags&16 != 0 {
			stakes.Supplier, caps.Supplier = goods.Unlimited, goods.Unlimited
		}
		opt := exchange.Options{}
		if flags&4 != 0 {
			opt.Policy = exchange.PayEager
		}
		var dst, dirty exchange.Sequence
		if flags&32 != 0 {
			dst = make(exchange.Sequence, 1, 2*terms.Bundle.Len()+1)
			for i := range dst[:cap(dst)] {
				dst[:cap(dst)][i] = exchange.Step{Kind: exchange.StepPay, Amount: goods.Money(-1 - i)}
			}
			dirty = append(exchange.Sequence(nil), dst[:cap(dst)]...)
		}
		calls := 0
		plan, safe, err := exchange.ScheduleSafeElse(dst, terms, stakes, opt, func() exchange.ExposureCaps {
			calls++
			return caps
		})
		if dst != nil {
			switch {
			case err != nil && !reflect.DeepEqual(dst[:cap(dst)], dirty):
				t.Fatalf("failed call wrote into its destination: %v", dst[:cap(dst)])
			case err == nil && len(plan.Steps) > 0 && &plan.Steps[0] != &dst[:1][0]:
				t.Fatalf("plan of %d steps not written into a destination of capacity %d", len(plan.Steps), cap(dst))
			}
		}

		want, wantErr := exchange.ScheduleSafe(terms, stakes, opt)
		wantSafe := wantErr == nil
		fellBack := errors.Is(wantErr, exchange.ErrNoSafeSequence)
		if fellBack {
			want, wantErr = exchange.ScheduleTrustAware(terms, caps, opt)
		}
		if fellBack != (calls == 1) || calls > 1 {
			t.Fatalf("caps called %d times; the safe attempt fell back: %v", calls, fellBack)
		}
		if safe != wantSafe {
			t.Fatalf("safe = %v, want %v (err %v)", safe, wantSafe, err)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("err = %v, want %v", err, wantErr)
		}
		if !reflect.DeepEqual(plan, want) {
			t.Fatalf("plan = %+v, want %+v", plan, want)
		}
	})
}
