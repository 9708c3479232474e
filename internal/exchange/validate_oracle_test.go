package exchange

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"trustcoop/internal/goods"
)

// validateSeqReference is validateSeq as it was before the bundle index:
// delivered items are matched through a map from ID to item, deleted as
// they arrive. It is the oracle for reports and violation texts.
func validateSeqReference(ctx bandCtx, t Terms, seq Sequence) (Report, error) {
	want := make(map[string]goods.Item, t.Bundle.Len())
	for _, it := range t.Bundle.Items {
		want[it.ID] = it
	}
	rep := Report{
		MaxConsumerExposure:   -goods.Unlimited,
		MaxSupplierExposure:   -goods.Unlimited,
		MinSlack:              goods.Unlimited,
		MaxSupplierTemptation: -goods.Unlimited,
		MaxConsumerTemptation: -goods.Unlimited,
	}
	var m, cd, wd goods.Money
	observe := func(idx int) *ViolationError {
		lo, hi := ctx.rangeAt(cd, wd)
		if m < lo || m > hi {
			return &ViolationError{StepIndex: idx, Reason: "payment outside admissible band", M: m, Lo: lo, Hi: hi}
		}
		rep.MaxConsumerExposure = goods.MaxMoney(rep.MaxConsumerExposure, m-wd)
		rep.MaxSupplierExposure = goods.MaxMoney(rep.MaxSupplierExposure, cd-m)
		rep.MinSlack = goods.MinMoney(rep.MinSlack, goods.MinMoney(m.SubSat(lo), hi.SubSat(m)))
		rep.MaxSupplierTemptation = goods.MaxMoney(rep.MaxSupplierTemptation, (m-cd)-t.SupplierGain())
		rep.MaxConsumerTemptation = goods.MaxMoney(rep.MaxConsumerTemptation, (wd-m)-t.ConsumerGain())
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
			it, ok := want[s.Item.ID]
			if !ok {
				return Report{}, &ViolationError{StepIndex: i, Reason: fmt.Sprintf("item %q not in bundle or delivered twice", s.Item.ID), M: m}
			}
			if it != s.Item {
				return Report{}, &ViolationError{StepIndex: i, Reason: fmt.Sprintf("item %q valuations differ from agreed terms", s.Item.ID), M: m}
			}
			delete(want, s.Item.ID)
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
	if len(want) > 0 {
		return Report{}, &ViolationError{StepIndex: len(seq), Reason: fmt.Sprintf("%d items never delivered", len(want)), M: m}
	}
	if m != t.Price {
		return Report{}, &ViolationError{StepIndex: len(seq), Reason: fmt.Sprintf("total paid %v differs from price %v", m, t.Price), M: m}
	}
	return rep, nil
}

// tamper applies one random edit to a delivery sequence: a changed cost or
// worth (to another item's or a fresh value), a repeated, dropped or foreign
// delivery, or a swapped pair of steps.
func tamper(rng *rand.Rand, t Terms, seq Sequence) Sequence {
	out := append(Sequence(nil), seq...)
	var deliveries []int
	for i, s := range out {
		if s.Kind == StepDeliver {
			deliveries = append(deliveries, i)
		}
	}
	d := deliveries[rng.Intn(len(deliveries))]
	other := t.Bundle.Items[rng.Intn(t.Bundle.Len())]
	switch rng.Intn(7) {
	case 0:
		out[d].Item.Cost = other.Cost
	case 1:
		out[d].Item.Worth = other.Worth
	case 2:
		out[d].Item.Cost += goods.Money(1 + rng.Intn(3))
	case 3:
		out = append(out, out[d])
	case 4:
		out = append(out[:d], out[d+1:]...)
	case 5:
		out[d].Item = goods.Item{ID: "foreign", Cost: other.Cost, Worth: other.Worth}
	default:
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestValidateSeqMatchesReference: on scheduled plans and on random edits of
// them, validateSeq reports exactly what the map-based replay reports.
func TestValidateSeqMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := goods.DefaultGenConfig()
	checked := 0
	reasons := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		gen.Items = 1 + rng.Intn(80)
		gen.Dist = goods.Distribution(1 + rng.Intn(3)) // Equal: every lookup tie-breaks on the ID
		gen.NegFraction = float64(rng.Intn(3)) / 4
		b, err := goods.Generate(gen, rng)
		if err != nil {
			t.Fatal(err)
		}
		terms := Terms{Bundle: b, Price: b.PriceAt(rng.Float64())}
		caps := ExposureCaps{Supplier: MinimalExposure(terms) + goods.Unit, Consumer: MinimalExposure(terms) + goods.Unit}
		plan, err := ScheduleTrustAware(terms, caps, Options{})
		if err != nil {
			continue
		}
		ctx := newBandCtx(terms, plan.Bands)
		for k := 0; k < 8; k++ {
			seq := plan.Steps
			if k > 0 {
				seq = tamper(rng, terms, seq)
			}
			sc := getScratch()
			got, gotErr := validateSeq(ctx, terms, seq, sc.itemIndex(terms.Bundle))
			putScratch(sc)
			want, wantErr := validateSeqReference(ctx, terms, seq)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("trial %d edit %d: validateSeq = %+v, %v; reference = %+v, %v", trial, k, got, gotErr, want, wantErr)
			}
			checked++
			if v, ok := wantErr.(*ViolationError); ok {
				for _, r := range []string{"not in bundle", "valuations differ", "never delivered", "band"} {
					if strings.Contains(v.Reason, r) {
						reasons[r]++
					}
				}
			}
		}
	}
	if checked < 1000 || len(reasons) < 4 {
		t.Errorf("%d sequences checked, violations %v: the property proves little", checked, reasons)
	}
}
