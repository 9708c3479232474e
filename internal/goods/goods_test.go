package goods

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMoneyString(t *testing.T) {
	cases := []struct {
		m    Money
		want string
	}{
		{0, "0"},
		{Unit, "1"},
		{5 * Unit, "5"},
		{Unit / 2, "0.5"},
		{-Unit, "-1"},
		{Unit + Unit/4, "1.25"},
		{-Unit / 4, "-0.25"},
		{Unlimited, "∞"},
		{-Unlimited, "-∞"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("Money(%d).String() = %q, want %q", int64(c.m), got, c.want)
		}
	}
}

func TestFromFloatRoundTrip(t *testing.T) {
	f := func(units int16, micros uint16) bool {
		v := float64(units) + float64(micros%1000)/1000
		m, err := FromFloat("v", v)
		if err != nil {
			return false
		}
		back := m.Float64()
		diff := back - v
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFromFloatRejectsOutOfRange: amounts from outside that are not finite
// or would reach the Unlimited sentinel fail with the field's name instead
// of wrapping to math.MinInt64 or saturating silently.
func TestFromFloatRejectsOutOfRange(t *testing.T) {
	limit := float64(Unlimited) / float64(Unit)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e13, -1e13, 2e12, limit, -limit, 1e300} {
		if m, err := FromFloat("-stake", v); err == nil || !strings.Contains(err.Error(), "-stake") {
			t.Errorf("FromFloat(%v) = %v, %v; want an error naming -stake", v, m, err)
		}
	}
	for _, v := range []float64{0, 1e12, -1e12, 1152921504606} {
		m, err := FromFloat("price", v)
		if err != nil {
			t.Errorf("FromFloat(%v): %v", v, err)
		}
		if m >= Unlimited || m <= -Unlimited {
			t.Errorf("FromFloat(%v) = %d reaches the Unlimited sentinel", v, int64(m))
		}
	}
}

func TestAddSatSaturates(t *testing.T) {
	if got := Unlimited.AddSat(Unlimited); got != Unlimited {
		t.Errorf("∞+∞ = %v, want ∞", got)
	}
	if got := (-Unlimited).AddSat(-Unlimited); got != -Unlimited {
		t.Errorf("-∞-∞ = %v, want -∞", got)
	}
	if got := Money(5).AddSat(7); got != 12 {
		t.Errorf("5+7 = %v, want 12", got)
	}
	if got := Unlimited.AddSat(-Unlimited); got != 0 {
		t.Errorf("∞-∞ = %v, want 0", got)
	}
	if got := Unlimited.SubSat(-Unit); got != Unlimited {
		t.Errorf("∞ - (-1) = %v, want ∞", got)
	}
	if got := Money(10).SubSat(4); got != 6 {
		t.Errorf("10-4 = %v, want 6", got)
	}
}

func TestAddSatNeverOverflows(t *testing.T) {
	f := func(a, b int64) bool {
		x := Money(a % int64(Unlimited))
		y := Money(b % int64(Unlimited))
		sum := x.AddSat(y)
		return sum <= Unlimited && sum >= -Unlimited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxClamp(t *testing.T) {
	if MinMoney(3, 5) != 3 || MinMoney(5, 3) != 3 {
		t.Error("MinMoney broken")
	}
	if MaxMoney(3, 5) != 5 || MaxMoney(5, 3) != 5 {
		t.Error("MaxMoney broken")
	}
	if Money(-7).ClampNonNeg() != 0 || Money(7).ClampNonNeg() != 7 {
		t.Error("ClampNonNeg broken")
	}
}

func TestBundleValidate(t *testing.T) {
	valid := Bundle{Items: []Item{{ID: "a", Cost: 1, Worth: 2}, {ID: "b", Cost: 3, Worth: 1}}}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid bundle rejected: %v", err)
	}
	cases := []struct {
		name string
		b    Bundle
	}{
		{"empty", Bundle{}},
		{"empty id", Bundle{Items: []Item{{ID: "", Cost: 1, Worth: 1}}}},
		{"dup id", Bundle{Items: []Item{{ID: "a", Cost: 1, Worth: 1}, {ID: "a", Cost: 2, Worth: 2}}}},
		{"neg cost", Bundle{Items: []Item{{ID: "a", Cost: -1, Worth: 1}}}},
		{"neg worth", Bundle{Items: []Item{{ID: "a", Cost: 1, Worth: -1}}}},
	}
	for _, c := range cases {
		if err := c.b.Validate(); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
	if err := (Bundle{}).Validate(); !errors.Is(err, ErrEmptyBundle) {
		t.Errorf("empty bundle error = %v, want ErrEmptyBundle", err)
	}
}

func TestNewBundleCopies(t *testing.T) {
	src := []Item{{ID: "a", Cost: 1, Worth: 2}}
	b, err := NewBundle(src...)
	if err != nil {
		t.Fatal(err)
	}
	src[0].Cost = 99
	if b.Items[0].Cost != 1 {
		t.Error("NewBundle did not copy its input")
	}
}

func TestBundleTotals(t *testing.T) {
	b := Bundle{Items: []Item{
		{ID: "a", Cost: 2 * Unit, Worth: 5 * Unit},
		{ID: "b", Cost: 3 * Unit, Worth: 4 * Unit},
	}}
	if b.TotalCost() != 5*Unit {
		t.Errorf("TotalCost = %v, want 5", b.TotalCost())
	}
	if b.TotalWorth() != 9*Unit {
		t.Errorf("TotalWorth = %v, want 9", b.TotalWorth())
	}
	if b.TotalSurplus() != 4*Unit {
		t.Errorf("TotalSurplus = %v, want 4", b.TotalSurplus())
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := Bundle{Items: []Item{{ID: "a", Cost: 1, Worth: 2}}}
	c := b.Clone()
	c.Items[0].Cost = 42
	if b.Items[0].Cost != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestSortedCopies(t *testing.T) {
	b := Bundle{Items: []Item{
		{ID: "b", Cost: 3, Worth: 1},
		{ID: "a", Cost: 1, Worth: 9},
		{ID: "c", Cost: 3, Worth: 5},
	}}
	byCost := b.SortedByCost()
	if byCost[0].ID != "a" || byCost[1].ID != "b" || byCost[2].ID != "c" {
		t.Errorf("SortedByCost order: %v", byCost)
	}
	byWorth := b.SortedByWorth()
	if byWorth[0].ID != "b" || byWorth[1].ID != "c" || byWorth[2].ID != "a" {
		t.Errorf("SortedByWorth order: %v", byWorth)
	}
	// Original untouched.
	if b.Items[0].ID != "b" {
		t.Error("sort mutated the bundle")
	}
}

func TestPriceAt(t *testing.T) {
	b := Bundle{Items: []Item{{ID: "a", Cost: 10 * Unit, Worth: 20 * Unit}}}
	if p := b.PriceAt(0); p != 10*Unit {
		t.Errorf("PriceAt(0) = %v, want cost", p)
	}
	if p := b.PriceAt(1); p != 20*Unit {
		t.Errorf("PriceAt(1) = %v, want worth", p)
	}
	if p := b.PriceAt(0.5); p != 15*Unit {
		t.Errorf("PriceAt(0.5) = %v, want 15", p)
	}
	if p := b.PriceAt(-3); p != 10*Unit {
		t.Errorf("PriceAt(-3) = %v, want clamp to cost", p)
	}
	if p := b.PriceAt(7); p != 20*Unit {
		t.Errorf("PriceAt(7) = %v, want clamp to worth", p)
	}
}

func TestGenerateUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultGenConfig()
	cfg.Items = 50
	b, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 50 {
		t.Fatalf("Len = %d, want 50", b.Len())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, it := range b.Items {
		if it.Cost <= 0 {
			t.Errorf("item %s: non-positive cost %v", it.ID, it.Cost)
		}
		if it.Surplus() < 0 {
			t.Errorf("item %s: unexpected negative surplus with positive margins", it.ID)
		}
		if !strings.HasPrefix(it.ID, "g") {
			t.Errorf("unexpected item ID %q", it.ID)
		}
	}
}

func TestGenerateParetoRespectsCapAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultGenConfig()
	cfg.Dist = Pareto
	cfg.Items = 3000
	b, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum Money
	for _, it := range b.Items {
		if it.Cost > 20*cfg.MeanCost {
			t.Fatalf("cost %v exceeds 20×mean cap", it.Cost)
		}
		sum += it.Cost
	}
	mean := float64(sum) / float64(len(b.Items))
	if mean < 0.5*float64(cfg.MeanCost) || mean > 2*float64(cfg.MeanCost) {
		t.Errorf("pareto mean cost %.0f wildly off target %d", mean, int64(cfg.MeanCost))
	}
}

func TestGenerateEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultGenConfig()
	cfg.Dist = Equal
	cfg.Items = 10
	b, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range b.Items {
		if it.Cost != cfg.MeanCost {
			t.Errorf("equal distribution produced cost %v, want %v", it.Cost, cfg.MeanCost)
		}
	}
}

func TestGenerateNegFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultGenConfig()
	cfg.Items = 10
	cfg.NegFraction = 0.3
	b, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	neg := 0
	for _, it := range b.Items {
		if it.Surplus() < 0 {
			neg++
		}
	}
	if neg != 3 {
		t.Errorf("negative-surplus items = %d, want 3", neg)
	}
}

func TestGenerateZeroCostLast(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultGenConfig()
	cfg.ZeroCostLast = true
	b, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.Items[b.Len()-1].Cost != 0 {
		t.Error("ZeroCostLast not honoured")
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []GenConfig{
		{Items: 0, MeanCost: Unit, Dist: Uniform},
		{Items: 3, MeanCost: 0, Dist: Uniform},
		{Items: 3, MeanCost: Unit, MarginMin: 0.5, MarginMax: 0.1, Dist: Uniform},
		{Items: 3, MeanCost: Unit, NegFraction: 2, Dist: Uniform},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rng); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a, err := Generate(cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != len(b.Items) {
		t.Fatal("lengths differ")
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a.Items[i], b.Items[i])
		}
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Pareto.String() != "pareto" || Equal.String() != "equal" {
		t.Error("Distribution.String labels wrong")
	}
	if !strings.Contains(Distribution(99).String(), "99") {
		t.Error("unknown distribution label should include the value")
	}
}
