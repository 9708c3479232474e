package exchange

import (
	"fmt"

	"trustcoop/internal/goods"
)

// Terms fixes what §2 of the paper assumes agreed before scheduling starts:
// the bundle of goods G with common-knowledge valuations and the overall
// price P the consumer will pay.
type Terms struct {
	Bundle goods.Bundle
	Price  goods.Money // P: total agreed payment
}

// Validate checks the bundle invariants and that the price is non-negative.
func (t Terms) Validate() error {
	_, err := t.validate()
	return err
}

// validate is Validate returning, for valid terms, their band context with
// no band enabled yet: the bundle's totals are summed once, for the check
// and for every band the caller then evaluates.
func (t Terms) validate() (bandCtx, error) {
	if err := t.Bundle.Validate(); err != nil {
		return bandCtx{}, fmt.Errorf("exchange: terms: %w", err)
	}
	if t.Price < 0 {
		return bandCtx{}, fmt.Errorf("exchange: terms: negative price %v", t.Price)
	}
	// Keep all band arithmetic far from the saturation threshold so safety
	// comparisons stay exact.
	const maxMagnitude = goods.Unlimited / 4
	ctx := newBandCtx(t, Bands{})
	if t.Price > maxMagnitude || ctx.totalCost > maxMagnitude || ctx.totalWorth > maxMagnitude {
		return bandCtx{}, fmt.Errorf("exchange: terms: valuations exceed supported magnitude %v", maxMagnitude)
	}
	return ctx, nil
}

// SupplierGain is the supplier's gain from completing: P − Vs(G).
func (t Terms) SupplierGain() goods.Money { return t.Price - t.Bundle.TotalCost() }

// ConsumerGain is the consumer's gain from completing: Vc(G) − P.
func (t Terms) ConsumerGain() goods.Money { return t.Bundle.TotalWorth() - t.Price }

// Stakes are the reputation effects of §2: the value of future business each
// party forfeits by defecting, which widens the safety band.
type Stakes struct {
	Supplier goods.Money // δs: what the supplier loses by defecting
	Consumer goods.Money // δc: what the consumer loses by defecting
}

// ExposureCaps are the paper's §3 bounds: "the values that the partners
// accept to be indebted", derived from trust and risk averseness.
type ExposureCaps struct {
	Supplier goods.Money // Ls: max acceptable supplier exposure Vs(D) − m
	Consumer goods.Money // Lc: max acceptable consumer exposure m − Vc(D)
}

// Bands selects which payment-band families an exchange must respect.
type Bands struct {
	Safety   bool   // enforce the Sandholm rational-safety band
	Stakes   Stakes // reputation stakes widening the safety band
	Exposure bool   // enforce the trust-aware bounded-indebtedness band
	Caps     ExposureCaps
}

// SafeBands is the isolated/reputation-backed safe-exchange configuration.
func SafeBands(s Stakes) Bands { return Bands{Safety: true, Stakes: s} }

// TrustAwareBands is the paper's §3 configuration: exposure caps only.
func TrustAwareBands(c ExposureCaps) Bands { return Bands{Exposure: true, Caps: c} }

// CombinedBands enforces both families simultaneously.
func CombinedBands(s Stakes, c ExposureCaps) Bands {
	return Bands{Safety: true, Stakes: s, Exposure: true, Caps: c}
}

// Validate checks that at least one family is enabled and all slacks are
// non-negative.
func (b Bands) Validate() error {
	if !b.Safety && !b.Exposure {
		return ErrNoBands
	}
	if b.Safety && (b.Stakes.Supplier < 0 || b.Stakes.Consumer < 0) {
		return fmt.Errorf("exchange: negative stakes %+v", b.Stakes)
	}
	if b.Exposure && (b.Caps.Supplier < 0 || b.Caps.Consumer < 0) {
		return fmt.Errorf("exchange: negative exposure caps %+v", b.Caps)
	}
	return nil
}

// String names the active configuration for experiment tables.
func (b Bands) String() string {
	switch {
	case b.Safety && b.Exposure:
		return "combined"
	case b.Safety:
		return "safe"
	case b.Exposure:
		return "trust-aware"
	default:
		return "none"
	}
}

// bandCtx precomputes the totals needed to evaluate band edges at any state
// in O(1).
type bandCtx struct {
	bands      Bands
	price      goods.Money
	totalCost  goods.Money
	totalWorth goods.Money
}

func newBandCtx(t Terms, b Bands) bandCtx {
	return bandCtx{
		bands:      b,
		price:      t.Price,
		totalCost:  t.Bundle.TotalCost(),
		totalWorth: t.Bundle.TotalWorth(),
	}
}

// rangeAt returns the admissible payment band [lo, hi] at the state where
// items of total cost costD and total worth worthD have been delivered.
// Unlimited stakes/caps behave as "no bound": every edge is clamped into
// [−Unlimited, Unlimited], and the result equals rangeAtSat's bit for bit.
//
// It needs what Schedule establishes before calling it: validated terms
// (price and totals in [0, Unlimited/4]), validated bands (stakes and caps
// ≥ 0, up to math.MaxInt64) and a delivered prefix of bundle items (costD
// and worthD in [0, Unlimited/4]). The differences of totals are then exact
// and at most 3·Unlimited/4 in magnitude, so only adding a stake or cap can
// leave int64, and since those are ≥ 0 an overflow shows as a wrap: a sum
// below its first operand, or a difference above it.
func (c bandCtx) rangeAt(costD, worthD goods.Money) (lo, hi goods.Money) {
	const u = goods.Unlimited
	lo, hi = -u, u
	if c.bands.Safety {
		// Pmin(D) − δc = P − Vc(G\D) − δc ;  Pmax(D) + δs = P − Vs(G\D) + δs.
		pmin := c.price - (c.totalWorth - worthD)
		if d := pmin - c.bands.Stakes.Consumer; d <= pmin && d > -u {
			lo = d
		}
		pmax := c.price - (c.totalCost - costD)
		if s := pmax + c.bands.Stakes.Supplier; s >= pmax && s < u {
			hi = s
		}
	}
	if c.bands.Exposure {
		// Vs(D) − Ls ≤ m ≤ Vc(D) + Lc. costD, Ls ≥ 0, so costD − Ls cannot
		// overflow.
		if d := costD - c.bands.Caps.Supplier; d > lo {
			lo = d
		}
		if s := worthD + c.bands.Caps.Consumer; s >= worthD && s < hi {
			hi = s
		}
	}
	return lo, hi
}

// rangeAtSat is rangeAt in saturating arithmetic, for inputs nothing has
// validated: RangeAt's caller-chosen prefixes and bands, and MinimalStake's
// terms. It is also the oracle rangeAt is tested against.
func (c bandCtx) rangeAtSat(costD, worthD goods.Money) (lo, hi goods.Money) {
	lo, hi = -goods.Unlimited, goods.Unlimited
	if c.bands.Safety {
		pmin := c.price.SubSat(c.totalWorth - worthD).SubSat(c.bands.Stakes.Consumer)
		pmax := c.price.SubSat(c.totalCost - costD).AddSat(c.bands.Stakes.Supplier)
		lo = goods.MaxMoney(lo, pmin)
		hi = goods.MinMoney(hi, pmax)
	}
	if c.bands.Exposure {
		lo = goods.MaxMoney(lo, costD.SubSat(c.bands.Caps.Supplier))
		hi = goods.MinMoney(hi, worthD.AddSat(c.bands.Caps.Consumer))
	}
	return lo, hi
}

// RangeAt exposes the band edges at a given delivered-prefix state; used by
// the safex CLI to explain schedules and by tests.
func RangeAt(t Terms, b Bands, delivered []goods.Item) (lo, hi goods.Money) {
	ctx := newBandCtx(t, b)
	var cd, wd goods.Money
	for _, it := range delivered {
		cd += it.Cost
		wd += it.Worth
	}
	return ctx.rangeAtSat(cd, wd)
}
