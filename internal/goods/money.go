// Package goods models the objects of exchange from the paper's setting
// (§2): a divisible set of items a supplier sells to a consumer, with the
// supplier's cost Vs(x) and the consumer's worth Vc(x) of every item x being
// common knowledge, plus deterministic workload generators for the
// experiments.
//
// All monetary quantities are fixed-point integers (Money, in micro-units) so
// that the safety arithmetic in internal/exchange is exact: a schedule is
// either safe or it is not, with no float rounding at the boundary.
package goods

import (
	"fmt"
	"math"
)

// Money is a monetary amount in micro-units (1 unit = 1e6 micro). Using a
// 64-bit fixed-point representation keeps exchange-safety comparisons exact.
type Money int64

// Unit is one whole currency unit.
const Unit Money = 1_000_000

// Unlimited is a sentinel for "no bound". It is far below the int64 overflow
// threshold so that sums of a few Unlimited values still behave sanely under
// the saturating arithmetic helpers.
const Unlimited Money = math.MaxInt64 / 8

// FromFloat converts units, an amount of whole units read from the flag or
// input field called name, to Money, rounding to the nearest micro-unit. It
// is the one door for amounts from outside: NaN, ±Inf and magnitudes that
// would reach the Unlimited sentinel (or wrap int64) are rejected with an
// error naming the field, instead of turning into a garbage amount.
func FromFloat(name string, units float64) (Money, error) {
	m := math.Round(units * float64(Unit))
	if !(math.Abs(m) < float64(Unlimited)) {
		return 0, fmt.Errorf("%s: amount %v out of range (want a finite magnitude below %g)",
			name, units, float64(Unlimited)/float64(Unit))
	}
	return Money(m), nil
}

// Float64 converts m to whole units as a float64 (for statistics only; never
// feed the result back into safety arithmetic).
func (m Money) Float64() float64 { return float64(m) / float64(Unit) }

// String renders the amount in whole units with up to six decimals.
func (m Money) String() string {
	if m == Unlimited {
		return "∞"
	}
	if m == -Unlimited {
		return "-∞"
	}
	sign := ""
	if m < 0 {
		sign = "-"
		m = -m
	}
	whole := m / Unit
	frac := m % Unit
	if frac == 0 {
		return fmt.Sprintf("%s%d", sign, whole)
	}
	s := fmt.Sprintf("%s%d.%06d", sign, whole, frac)
	// Trim trailing zeros for readability.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s
}

// AddSat returns m+n, saturating at ±Unlimited instead of overflowing.
func (m Money) AddSat(n Money) Money {
	sum := m + n
	switch {
	case m > 0 && n > 0 && (sum < 0 || sum > Unlimited):
		return Unlimited
	case m < 0 && n < 0 && (sum > 0 || sum < -Unlimited):
		return -Unlimited
	case sum > Unlimited:
		return Unlimited
	case sum < -Unlimited:
		return -Unlimited
	}
	return sum
}

// SubSat returns m−n, saturating at ±Unlimited instead of overflowing.
func (m Money) SubSat(n Money) Money {
	if n == math.MinInt64 {
		return m.AddSat(Unlimited)
	}
	return m.AddSat(-n)
}

// MinMoney returns the smaller of a and b.
func MinMoney(a, b Money) Money {
	if a < b {
		return a
	}
	return b
}

// MaxMoney returns the larger of a and b.
func MaxMoney(a, b Money) Money {
	if a > b {
		return a
	}
	return b
}

// ClampNonNeg returns m, or 0 when m is negative.
func (m Money) ClampNonNeg() Money {
	if m < 0 {
		return 0
	}
	return m
}
