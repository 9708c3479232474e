// Package decision implements the paper's decision-making module (Figure 1
// and §3): given a probabilistic trust estimate of the partner and the
// user's risk averseness, it derives how much of the nominal gain the party
// is willing to put at risk — "the values that the partners accept to be
// indebted" — as an exposure cap consumed by internal/exchange.
//
// The acceptance rule is expected-utility non-negativity: a party with risk
// utility u accepts a worst-case exposure L against a partner trusted with
// probability p for a completion gain g when
//
//	p·u(g) + (1−p)·u(−L) ≥ 0.
//
// The exposure limit is the largest L satisfying the rule. For the
// risk-neutral utility u(w) = w this is the odds rule L = g·p/(1−p); risk
// aversion (CARA, CRRA) shrinks it.
package decision

import (
	"fmt"
	"math"

	"trustcoop/internal/goods"
)

// Policy derives the maximum acceptable worst-case exposure from a trust
// estimate and the nominal gain from completing the exchange.
type Policy interface {
	// ExposureLimit returns the largest loss the party accepts to risk. The
	// trust estimate is clamped into [0, 1]; a non-positive gain yields 0
	// (no reason to take any risk).
	ExposureLimit(trust float64, gain goods.Money) goods.Money
	// Name labels the policy in experiment tables.
	Name() string
}

// clampTrust keeps probabilities sane and reserves p == 1 for "certainty".
func clampTrust(p float64) float64 {
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// RiskNeutral accepts any exposure whose expected loss is covered by the
// expected gain: L = g·p/(1−p).
type RiskNeutral struct{}

// Name implements Policy.
func (RiskNeutral) Name() string { return "risk-neutral" }

// ExposureLimit implements Policy.
func (RiskNeutral) ExposureLimit(trust float64, gain goods.Money) goods.Money {
	p := clampTrust(trust)
	if gain <= 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return goods.Unlimited
	}
	limit := float64(gain) * p / (1 - p)
	if limit >= float64(goods.Unlimited) {
		return goods.Unlimited
	}
	return goods.Money(limit)
}

// CARA is constant-absolute-risk-aversion: u(w) = (1 − e^{−αw})/α with w in
// whole currency units. Alpha must be positive; larger alpha is more
// cautious. Its closed-form limit L = ln(1 + α·A)/α with
// A = (p/(1−p))·u(g) is bounded by ln(1/(1−p))/α no matter how large the
// gain — a strongly risk-averse party never bets more than its confidence
// supports.
type CARA struct {
	Alpha float64 // absolute risk aversion per currency unit
}

// Name implements Policy.
func (c CARA) Name() string { return fmt.Sprintf("cara(α=%g)", c.Alpha) }

// ExposureLimit implements Policy.
func (c CARA) ExposureLimit(trust float64, gain goods.Money) goods.Money {
	p := clampTrust(trust)
	if gain <= 0 || p == 0 {
		return 0
	}
	if c.Alpha <= 0 {
		return RiskNeutral{}.ExposureLimit(p, gain)
	}
	if p == 1 {
		return goods.Unlimited
	}
	g := gain.Float64()
	ug := (1 - math.Exp(-c.Alpha*g)) / c.Alpha
	a := p / (1 - p) * ug
	limitUnits := math.Log1p(c.Alpha*a) / c.Alpha
	limit := limitUnits * float64(goods.Unit)
	if limit >= float64(goods.Unlimited) {
		return goods.Unlimited
	}
	return goods.Money(limit)
}

// CRRA is constant-relative-risk-aversion over total wealth W:
// u(w) = ((W+w)^{1−γ} − W^{1−γ})/(1−γ) (natural log for γ = 1). The exposure
// limit never reaches the party's wealth. Gamma must be positive; Wealth
// must be positive.
type CRRA struct {
	Gamma  float64     // relative risk aversion
	Wealth goods.Money // current wealth; losses are bounded by it
}

// Name implements Policy.
func (c CRRA) Name() string { return fmt.Sprintf("crra(γ=%g)", c.Gamma) }

func (c CRRA) utility(w float64) float64 {
	wealth := c.Wealth.Float64()
	x := wealth + w
	if x < 0 {
		x = 0
	}
	if c.Gamma == 1 {
		if x == 0 {
			return math.Inf(-1)
		}
		return math.Log(x) - math.Log(wealth)
	}
	e := 1 - c.Gamma
	return (math.Pow(x, e) - math.Pow(wealth, e)) / e
}

// ExposureLimit implements Policy. The limit is found by bisection on
// [0, Wealth]; 64 iterations bring the bracket below a micro-unit for any
// realistic wealth.
func (c CRRA) ExposureLimit(trust float64, gain goods.Money) goods.Money {
	p := clampTrust(trust)
	if gain <= 0 || p == 0 || c.Wealth <= 0 {
		return 0
	}
	if c.Gamma <= 0 {
		return RiskNeutral{}.ExposureLimit(p, gain)
	}
	if p == 1 {
		return goods.Unlimited
	}
	g := gain.Float64()
	accept := func(lossUnits float64) bool {
		return p*c.utility(g)+(1-p)*c.utility(-lossUnits) >= 0
	}
	lo, hi := 0.0, c.Wealth.Float64()
	if accept(hi) {
		return c.Wealth
	}
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if accept(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return goods.Money(lo * float64(goods.Unit))
}

// FixedCap ignores trust and gain and always allows the same exposure — the
// "flat escrow limit" baseline.
type FixedCap struct {
	Cap goods.Money
}

// Name implements Policy.
func (f FixedCap) Name() string { return fmt.Sprintf("fixed(%v)", f.Cap) }

// ExposureLimit implements Policy.
func (f FixedCap) ExposureLimit(trust float64, gain goods.Money) goods.Money {
	if f.Cap < 0 {
		return 0
	}
	return f.Cap
}

// Paranoid accepts no exposure at all: only fully safe exchanges happen.
type Paranoid struct{}

// Name implements Policy.
func (Paranoid) Name() string { return "paranoid" }

// ExposureLimit implements Policy.
func (Paranoid) ExposureLimit(float64, goods.Money) goods.Money { return 0 }

// ExpectedGain is the trust-discounted gain the paper asks parties to reason
// with: p·gain − (1−p)·exposure.
func ExpectedGain(trust float64, gain, exposure goods.Money) goods.Money {
	p := clampTrust(trust)
	return goods.Money(p*float64(gain) - (1-p)*float64(exposure))
}

var (
	_ Policy = RiskNeutral{}
	_ Policy = CARA{}
	_ Policy = CRRA{}
	_ Policy = FixedCap{}
	_ Policy = Paranoid{}
)
