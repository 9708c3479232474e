package exchange

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"trustcoop/internal/goods"
)

// Validate is validateSeq behind a fresh band context and bundle index:
// the replay the tests hold every scheduled plan, and the Report its
// construction accumulated, to. It validates the terms and bands first, as
// an untrusted plan needs.
func Validate(t Terms, b Bands, seq Sequence) (Report, error) {
	if err := t.Validate(); err != nil {
		return Report{}, err
	}
	if err := b.Validate(); err != nil {
		return Report{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	return validateSeq(newBandCtx(t, b), t, seq, sc.itemIndex(t.Bundle))
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
// violation; it marks want's items delivered. The scheduler never replays
// its plans: it builds each one's Report as it builds the plan, and this
// independent replay is the oracle that Report is held to.
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

// TotalPaid sums the payment steps.
func (seq Sequence) TotalPaid() goods.Money {
	var sum goods.Money
	for _, s := range seq {
		if s.Kind == StepPay {
			sum += s.Amount
		}
	}
	return sum
}

// Deliveries returns the delivered items in order.
func (seq Sequence) Deliveries() []goods.Item {
	var items []goods.Item
	for _, s := range seq {
		if s.Kind == StepDeliver {
			items = append(items, s.Item)
		}
	}
	return items
}

// validPlan returns the hand-verified staked schedule of the worked example.
func validPlan(t *testing.T) (Terms, Bands, Sequence) {
	t.Helper()
	tm := twoItemTerms()
	bands := SafeBands(Stakes{Supplier: 4})
	seq := Sequence{
		{Kind: StepPay, Amount: 5},
		{Kind: StepDeliver, Item: goods.Item{ID: "b", Cost: 6, Worth: 12}},
		{Kind: StepPay, Amount: 10},
		{Kind: StepDeliver, Item: goods.Item{ID: "a", Cost: 4, Worth: 10}},
	}
	return tm, bands, seq
}

func TestValidateAcceptsHandBuiltPlan(t *testing.T) {
	tm, bands, seq := validPlan(t)
	rep, err := Validate(tm, bands, seq)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Payments != 2 || rep.Deliveries != 2 || rep.TotalPaid != 15 {
		t.Errorf("report counts wrong: %+v", rep)
	}
	if rep.MinSlack < 0 {
		t.Errorf("MinSlack = %v, want ≥ 0", rep.MinSlack)
	}
}

func TestValidateViolationDetails(t *testing.T) {
	tm, bands, _ := validPlan(t)
	// Paying the full price upfront busts Pmax(∅)+δs = 9.
	seq := Sequence{
		{Kind: StepPay, Amount: 15},
		{Kind: StepDeliver, Item: tm.Bundle.Items[1]},
		{Kind: StepDeliver, Item: tm.Bundle.Items[0]},
	}
	_, err := Validate(tm, bands, seq)
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want *ViolationError", err)
	}
	if v.StepIndex != 0 {
		t.Errorf("violation at step %d, want 0", v.StepIndex)
	}
	if v.M != 15 || v.Hi != 9 {
		t.Errorf("violation detail m=%v hi=%v, want 15, 9", v.M, v.Hi)
	}
	if !strings.Contains(v.Error(), "band") {
		t.Errorf("error text %q should mention the band", v.Error())
	}
}

func TestValidateRejectsStructuralProblems(t *testing.T) {
	tm, bands, good := validPlan(t)
	itemA := goods.Item{ID: "a", Cost: 4, Worth: 10}
	itemB := goods.Item{ID: "b", Cost: 6, Worth: 12}

	cases := []struct {
		name string
		seq  Sequence
	}{
		{"missing delivery", Sequence{
			{Kind: StepPay, Amount: 5},
			{Kind: StepDeliver, Item: itemB},
			{Kind: StepPay, Amount: 10},
		}},
		{"double delivery", Sequence{
			{Kind: StepPay, Amount: 5},
			{Kind: StepDeliver, Item: itemB},
			{Kind: StepPay, Amount: 10},
			{Kind: StepDeliver, Item: itemB},
		}},
		{"foreign item", Sequence{
			{Kind: StepPay, Amount: 5},
			{Kind: StepDeliver, Item: goods.Item{ID: "zz", Cost: 1, Worth: 1}},
		}},
		{"tampered valuation", Sequence{
			{Kind: StepPay, Amount: 5},
			{Kind: StepDeliver, Item: goods.Item{ID: "b", Cost: 6, Worth: 99}},
			{Kind: StepPay, Amount: 10},
			{Kind: StepDeliver, Item: itemA},
		}},
		{"zero payment", Sequence{
			{Kind: StepPay, Amount: 0},
			{Kind: StepDeliver, Item: itemB},
		}},
		{"negative payment", Sequence{
			{Kind: StepPay, Amount: -3},
		}},
		{"underpaid settlement", Sequence{
			{Kind: StepPay, Amount: 5},
			{Kind: StepDeliver, Item: itemB},
			{Kind: StepPay, Amount: 9},
			{Kind: StepDeliver, Item: itemA},
		}},
		{"unknown step kind", Sequence{{Kind: StepKind(42)}}},
	}
	for _, c := range cases {
		if _, err := Validate(tm, bands, c.seq); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Sanity: the untampered plan still validates.
	if _, err := Validate(tm, bands, good); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestValidateChecksInitialState(t *testing.T) {
	// Price far above worth makes even the empty state violate Pmin ≤ 0.
	b := goods.Bundle{Items: []goods.Item{{ID: "a", Cost: 1, Worth: 2}}}
	tm := Terms{Bundle: b, Price: 100}
	_, err := Validate(tm, SafeBands(Stakes{}), Sequence{})
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want violation at initial state", err)
	}
	if v.StepIndex != -1 {
		t.Errorf("violation step = %d, want -1 (initial state)", v.StepIndex)
	}
}

func TestValidatePropagatesTermAndBandErrors(t *testing.T) {
	if _, err := Validate(Terms{}, SafeBands(Stakes{}), nil); err == nil {
		t.Error("invalid terms accepted")
	}
	if _, err := Validate(twoItemTerms(), Bands{}, nil); !errors.Is(err, ErrNoBands) {
		t.Error("invalid bands accepted")
	}
}

func TestReportExposuresMatchHandComputation(t *testing.T) {
	tm, bands, seq := validPlan(t)
	rep, err := Validate(tm, bands, seq)
	if err != nil {
		t.Fatal(err)
	}
	// States: (0,∅) (5,∅) (5,{b}) (15,{b}) (15,G).
	// Consumer exposure m−Vc(D): 0, 5, −7, 3, −7 → max 5.
	// Supplier exposure Vs(D)−m: 0, −5, 1, −9, −5 → max 1.
	if rep.MaxConsumerExposure != 5 {
		t.Errorf("MaxConsumerExposure = %v, want 5", rep.MaxConsumerExposure)
	}
	if rep.MaxSupplierExposure != 1 {
		t.Errorf("MaxSupplierExposure = %v, want 1", rep.MaxSupplierExposure)
	}
	// Supplier temptation (m−Vs(D))−(P−Vs(G)): max at (15,{b}): 9−5=4 = δs.
	if rep.MaxSupplierTemptation != 4 {
		t.Errorf("MaxSupplierTemptation = %v, want 4", rep.MaxSupplierTemptation)
	}
	// Consumer temptation (Vc(D)−m)−(Vc(G)−P): max 0 (never tempted).
	if rep.MaxConsumerTemptation != 0 {
		t.Errorf("MaxConsumerTemptation = %v, want 0", rep.MaxConsumerTemptation)
	}
}

func TestSafePlansKeepTemptationWithinStakes(t *testing.T) {
	// Property: any plan produced under SafeBands keeps each party's
	// defection temptation within its stake — that is exactly what "safe"
	// means, so this is the paper's core invariant.
	tmpl := twoItemTerms()
	for delta := goods.Money(4); delta <= 20; delta += 4 {
		st := Stakes{Supplier: delta / 2, Consumer: delta - delta/2}
		plan, err := ScheduleSafe(tmpl, st, Options{})
		if err != nil {
			t.Fatalf("Δ=%v: %v", delta, err)
		}
		if plan.Report.MaxSupplierTemptation > st.Supplier {
			t.Errorf("Δ=%v: supplier temptation %v > δs %v", delta, plan.Report.MaxSupplierTemptation, st.Supplier)
		}
		if plan.Report.MaxConsumerTemptation > st.Consumer {
			t.Errorf("Δ=%v: consumer temptation %v > δc %v", delta, plan.Report.MaxConsumerTemptation, st.Consumer)
		}
	}
}
