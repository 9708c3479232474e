package decision

import (
	"math"
	"testing"
	"testing/quick"

	"trustcoop/internal/goods"
)

func TestRiskNeutralOddsRule(t *testing.T) {
	gain := 10 * goods.Unit
	cases := []struct {
		p    float64
		want goods.Money
	}{
		{0, 0},
		{0.5, 10 * goods.Unit}, // even odds: risk as much as the gain
		{0.8, 40 * goods.Unit}, // 4:1 odds
		{0.9, 90 * goods.Unit}, // 9:1 odds
		{1, goods.Unlimited},   // certainty
		{-3, 0},                // clamped
		{2, goods.Unlimited},   // clamped
		{math.NaN(), 0},        // defensive
	}
	for _, c := range cases {
		if got := (RiskNeutral{}).ExposureLimit(c.p, gain); got != c.want {
			t.Errorf("p=%v: limit = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (RiskNeutral{}).ExposureLimit(0.5, -goods.Unit); got != 0 {
		t.Errorf("negative gain: limit = %v, want 0", got)
	}
}

func TestRiskNeutralExpectedGainZeroAtLimit(t *testing.T) {
	// At the limit the expected gain is exactly zero — the acceptance rule
	// binds with equality for the risk-neutral utility.
	for _, p := range []float64{0.3, 0.5, 0.75, 0.9} {
		gain := 20 * goods.Unit
		l := (RiskNeutral{}).ExposureLimit(p, gain)
		eg := ExpectedGain(p, gain, l)
		if abs := math.Abs(eg.Float64()); abs > 1e-3 {
			t.Errorf("p=%v: expected gain at the limit = %v, want ~0", p, eg)
		}
	}
}

func TestCARAShrinksWithAlpha(t *testing.T) {
	gain := 50 * goods.Unit
	p := 0.8
	prev := (RiskNeutral{}).ExposureLimit(p, gain)
	for _, alpha := range []float64{0.01, 0.1, 1, 10} {
		l := CARA{Alpha: alpha}.ExposureLimit(p, gain)
		if l > prev {
			t.Errorf("alpha=%g: limit %v exceeds less-averse limit %v", alpha, l, prev)
		}
		prev = l
	}
}

func TestCARAApproachesRiskNeutralAsAlphaVanishes(t *testing.T) {
	gain := 5 * goods.Unit
	p := 0.6
	want := (RiskNeutral{}).ExposureLimit(p, gain)
	got := CARA{Alpha: 1e-9}.ExposureLimit(p, gain)
	ratio := got.Float64() / want.Float64()
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("tiny-alpha CARA = %v, want ≈ risk-neutral %v", got, want)
	}
	// Alpha ≤ 0 falls back explicitly.
	if got := (CARA{Alpha: 0}).ExposureLimit(p, gain); got != want {
		t.Errorf("alpha=0 fallback = %v, want %v", got, want)
	}
}

func TestCARABoundedRegardlessOfGain(t *testing.T) {
	// ln(1/(1−p))/α bounds the exposure no matter the gain.
	p := 0.9
	alpha := 0.5
	bound, err := goods.FromFloat("bound", math.Log(1/(1-p))/alpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, gain := range []goods.Money{goods.Unit, 100 * goods.Unit, 1_000_000 * goods.Unit} {
		l := CARA{Alpha: alpha}.ExposureLimit(p, gain)
		if l > bound+goods.Unit/1000 {
			t.Errorf("gain=%v: CARA limit %v exceeds theoretical bound %v", gain, l, bound)
		}
	}
}

func TestCARACertaintyUnlimited(t *testing.T) {
	if got := (CARA{Alpha: 1}).ExposureLimit(1, goods.Unit); got != goods.Unlimited {
		t.Errorf("certainty limit = %v, want Unlimited", got)
	}
}

func TestCRRAAcceptanceBindsAtLimit(t *testing.T) {
	pol := CRRA{Gamma: 2, Wealth: 100 * goods.Unit}
	p := 0.8
	gain := 20 * goods.Unit
	l := pol.ExposureLimit(p, gain)
	if l <= 0 || l >= pol.Wealth {
		t.Fatalf("limit = %v, want in (0, wealth)", l)
	}
	// Just inside the limit: acceptable; just outside: not.
	at := p*pol.utility(gain.Float64()) + (1-p)*pol.utility(-(l-goods.Unit/100).Float64())
	if at < 0 {
		t.Errorf("utility just inside limit = %g, want ≥ 0", at)
	}
	beyond := p*pol.utility(gain.Float64()) + (1-p)*pol.utility(-(l+goods.Unit).Float64())
	if beyond >= 0 {
		t.Errorf("utility beyond limit = %g, want < 0", beyond)
	}
}

func TestCRRALogUtilityGamma1(t *testing.T) {
	pol := CRRA{Gamma: 1, Wealth: 100 * goods.Unit}
	l := pol.ExposureLimit(0.7, 10*goods.Unit)
	if l <= 0 || l >= pol.Wealth {
		t.Fatalf("log-utility limit = %v, want in (0, wealth)", l)
	}
	// Higher gamma is more cautious.
	l3 := CRRA{Gamma: 3, Wealth: 100 * goods.Unit}.ExposureLimit(0.7, 10*goods.Unit)
	if l3 > l {
		t.Errorf("gamma=3 limit %v exceeds gamma=1 limit %v", l3, l)
	}
}

func TestCRRAEdgeCases(t *testing.T) {
	if got := (CRRA{Gamma: 2, Wealth: 0}).ExposureLimit(0.9, goods.Unit); got != 0 {
		t.Errorf("zero wealth limit = %v, want 0", got)
	}
	if got := (CRRA{Gamma: 0, Wealth: goods.Unit}).ExposureLimit(0.5, goods.Unit); got != (RiskNeutral{}).ExposureLimit(0.5, goods.Unit) {
		t.Errorf("gamma≤0 should fall back to risk-neutral, got %v", got)
	}
	if got := (CRRA{Gamma: 2, Wealth: goods.Unit}).ExposureLimit(1, goods.Unit); got != goods.Unlimited {
		t.Errorf("certainty limit = %v, want Unlimited", got)
	}
}

func TestFixedCapAndParanoid(t *testing.T) {
	if got := (FixedCap{Cap: 7}).ExposureLimit(0.99, 1000*goods.Unit); got != 7 {
		t.Errorf("fixed cap = %v, want 7", got)
	}
	if got := (FixedCap{Cap: -7}).ExposureLimit(0.5, goods.Unit); got != 0 {
		t.Errorf("negative fixed cap = %v, want 0", got)
	}
	if got := (Paranoid{}).ExposureLimit(1, goods.Unlimited); got != 0 {
		t.Errorf("paranoid = %v, want 0", got)
	}
}

func TestPolicyNames(t *testing.T) {
	pols := []Policy{RiskNeutral{}, CARA{Alpha: 0.5}, CRRA{Gamma: 2, Wealth: goods.Unit}, FixedCap{Cap: 1}, Paranoid{}}
	seen := map[string]bool{}
	for _, p := range pols {
		n := p.Name()
		if n == "" || seen[n] {
			t.Errorf("policy name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}

func TestMonotoneInTrust(t *testing.T) {
	pols := []Policy{RiskNeutral{}, CARA{Alpha: 0.3}, CRRA{Gamma: 2, Wealth: 200 * goods.Unit}}
	gain := 15 * goods.Unit
	for _, pol := range pols {
		prev := goods.Money(-1)
		for p := 0.0; p <= 0.95; p += 0.05 {
			l := pol.ExposureLimit(p, gain)
			if l < prev {
				t.Errorf("%s: limit decreased from %v to %v at p=%g", pol.Name(), prev, l, p)
			}
			prev = l
		}
	}
}

func TestMonotoneInGain(t *testing.T) {
	f := func(rawGain uint32, rawP uint8) bool {
		gain := goods.Money(rawGain % 1000000)
		p := float64(rawP%100) / 100
		for _, pol := range []Policy{RiskNeutral{}, CARA{Alpha: 0.2}, CRRA{Gamma: 1.5, Wealth: 500 * goods.Unit}} {
			l1 := pol.ExposureLimit(p, gain)
			l2 := pol.ExposureLimit(p, gain+goods.Unit)
			if l2 < l1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpectedGain(t *testing.T) {
	if eg := ExpectedGain(0.5, 10*goods.Unit, 4*goods.Unit); eg != 3*goods.Unit {
		t.Errorf("ExpectedGain = %v, want 3", eg)
	}
	if eg := ExpectedGain(0, 10*goods.Unit, 4*goods.Unit); eg != -4*goods.Unit {
		t.Errorf("zero-trust ExpectedGain = %v, want -4", eg)
	}
}
