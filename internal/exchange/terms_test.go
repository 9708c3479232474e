package exchange

import (
	"errors"
	"strings"
	"testing"

	"trustcoop/internal/goods"
)

// twoItemTerms is the worked example used throughout the tests:
// a(cost 4, worth 10), b(cost 6, worth 12), price 15.
// Vs(G) = 10, Vc(G) = 22, supplier gain 5, consumer gain 7.
func twoItemTerms() Terms {
	return Terms{
		Bundle: goods.Bundle{Items: []goods.Item{
			{ID: "a", Cost: 4, Worth: 10},
			{ID: "b", Cost: 6, Worth: 12},
		}},
		Price: 15,
	}
}

func TestTermsGains(t *testing.T) {
	tm := twoItemTerms()
	if g := tm.SupplierGain(); g != 5 {
		t.Errorf("SupplierGain = %v, want 5", g)
	}
	if g := tm.ConsumerGain(); g != 7 {
		t.Errorf("ConsumerGain = %v, want 7", g)
	}
}

func TestTermsValidate(t *testing.T) {
	if err := twoItemTerms().Validate(); err != nil {
		t.Fatalf("valid terms rejected: %v", err)
	}
	bad := twoItemTerms()
	bad.Price = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative price accepted")
	}
	empty := Terms{Price: 5}
	if err := empty.Validate(); err == nil {
		t.Error("empty bundle accepted")
	}
	huge := Terms{
		Bundle: goods.Bundle{Items: []goods.Item{{ID: "x", Cost: goods.Unlimited / 2, Worth: goods.Unlimited / 2}}},
		Price:  1,
	}
	if err := huge.Validate(); err == nil {
		t.Error("over-magnitude valuations accepted")
	}
}

func TestBandsValidate(t *testing.T) {
	if err := (Bands{}).Validate(); !errors.Is(err, ErrNoBands) {
		t.Errorf("no-band error = %v, want ErrNoBands", err)
	}
	if err := SafeBands(Stakes{Supplier: -1}).Validate(); err == nil {
		t.Error("negative stake accepted")
	}
	if err := TrustAwareBands(ExposureCaps{Consumer: -1}).Validate(); err == nil {
		t.Error("negative cap accepted")
	}
	if err := CombinedBands(Stakes{Supplier: 1}, ExposureCaps{Consumer: 2}).Validate(); err != nil {
		t.Errorf("valid combined bands rejected: %v", err)
	}
}

func TestBandsString(t *testing.T) {
	cases := map[string]Bands{
		"safe":        SafeBands(Stakes{}),
		"trust-aware": TrustAwareBands(ExposureCaps{}),
		"combined":    CombinedBands(Stakes{}, ExposureCaps{}),
		"none":        {},
	}
	for want, b := range cases {
		if got := b.String(); got != want {
			t.Errorf("Bands.String() = %q, want %q", got, want)
		}
	}
}

func TestSafetyBandEdges(t *testing.T) {
	tm := twoItemTerms()
	b := SafeBands(Stakes{})
	// At the empty state: Pmin = P − Vc(G) = −7, Pmax = P − Vs(G) = 5.
	lo, hi := RangeAt(tm, b, nil)
	if lo != -7 || hi != 5 {
		t.Errorf("empty state band = [%v, %v], want [-7, 5]", lo, hi)
	}
	// After delivering b: Pmin = 15 − Vc({a}) = 5, Pmax = 15 − Vs({a}) = 11.
	lo, hi = RangeAt(tm, b, []goods.Item{{ID: "b", Cost: 6, Worth: 12}})
	if lo != 5 || hi != 11 {
		t.Errorf("after-b band = [%v, %v], want [5, 11]", lo, hi)
	}
	// Complete state: band collapses to exactly P.
	lo, hi = RangeAt(tm, b, tm.Bundle.Items)
	if lo != 15 || hi != 15 {
		t.Errorf("complete band = [%v, %v], want [15, 15]", lo, hi)
	}
}

func TestSafetyBandWidensWithStakes(t *testing.T) {
	tm := twoItemTerms()
	b := SafeBands(Stakes{Supplier: 3, Consumer: 2})
	lo, hi := RangeAt(tm, b, nil)
	if lo != -9 || hi != 8 {
		t.Errorf("staked empty band = [%v, %v], want [-9, 8]", lo, hi)
	}
}

func TestExposureBandEdges(t *testing.T) {
	tm := twoItemTerms()
	b := TrustAwareBands(ExposureCaps{Supplier: 5, Consumer: 3})
	lo, hi := RangeAt(tm, b, nil)
	if lo != -5 || hi != 3 {
		t.Errorf("empty exposure band = [%v, %v], want [-5, 3]", lo, hi)
	}
	lo, hi = RangeAt(tm, b, []goods.Item{{ID: "a", Cost: 4, Worth: 10}})
	if lo != -1 || hi != 13 {
		t.Errorf("after-a exposure band = [%v, %v], want [-1, 13]", lo, hi)
	}
}

func TestCombinedBandIsIntersection(t *testing.T) {
	tm := twoItemTerms()
	safe := SafeBands(Stakes{Supplier: 3, Consumer: 2})
	expo := TrustAwareBands(ExposureCaps{Supplier: 5, Consumer: 3})
	comb := CombinedBands(safe.Stakes, expo.Caps)
	states := [][]goods.Item{nil, {tm.Bundle.Items[0]}, {tm.Bundle.Items[1]}, tm.Bundle.Items}
	for _, d := range states {
		lo1, hi1 := RangeAt(tm, safe, d)
		lo2, hi2 := RangeAt(tm, expo, d)
		lo, hi := RangeAt(tm, comb, d)
		if lo != goods.MaxMoney(lo1, lo2) || hi != goods.MinMoney(hi1, hi2) {
			t.Errorf("state %v: combined [%v,%v] is not intersection of [%v,%v] and [%v,%v]",
				d, lo, hi, lo1, hi1, lo2, hi2)
		}
	}
}

func TestUnlimitedCapsBehaveAsNoBound(t *testing.T) {
	tm := twoItemTerms()
	b := TrustAwareBands(ExposureCaps{Supplier: goods.Unlimited, Consumer: goods.Unlimited})
	lo, hi := RangeAt(tm, b, tm.Bundle.Items)
	if lo >= 0 || hi <= tm.Price {
		t.Errorf("unlimited caps produced binding band [%v, %v]", lo, hi)
	}
}

func TestStepAndKindStrings(t *testing.T) {
	if StepPay.String() != "pay" || StepDeliver.String() != "deliver" {
		t.Error("StepKind labels wrong")
	}
	if !strings.Contains(StepKind(9).String(), "9") {
		t.Error("unknown kind label should include value")
	}
	pay := Step{Kind: StepPay, Amount: 7}
	if !strings.Contains(pay.String(), "pay") {
		t.Errorf("pay step string %q", pay.String())
	}
	del := Step{Kind: StepDeliver, Item: goods.Item{ID: "x", Cost: 1, Worth: 2}}
	if !strings.Contains(del.String(), "x") {
		t.Errorf("deliver step string %q", del.String())
	}
	if s := (Step{Kind: StepKind(9)}).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown step string %q", s)
	}
}

func TestSequenceAccessors(t *testing.T) {
	seq := Sequence{
		{Kind: StepPay, Amount: 5},
		{Kind: StepDeliver, Item: goods.Item{ID: "b", Cost: 6, Worth: 12}},
		{Kind: StepPay, Amount: 10},
		{Kind: StepDeliver, Item: goods.Item{ID: "a", Cost: 4, Worth: 10}},
	}
	if got := seq.TotalPaid(); got != 15 {
		t.Errorf("TotalPaid = %v, want 15", got)
	}
	dels := seq.Deliveries()
	if len(dels) != 2 || dels[0].ID != "b" || dels[1].ID != "a" {
		t.Errorf("Deliveries = %v", dels)
	}
}
