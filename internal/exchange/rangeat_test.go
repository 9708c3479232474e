package exchange

import (
	"math"
	"math/rand"
	"testing"

	"trustcoop/internal/goods"
)

// TestRangeAtMatchesSaturating: on the inputs Schedule hands it — validated
// terms and bands, delivered prefixes of bundle items — rangeAt's plain
// arithmetic returns rangeAtSat's band edges bit for bit, for all three band
// families, at boundary states and slacks (0, 1, Unlimited, math.MaxInt64
// and their neighbours) and at random ones.
func TestRangeAtMatchesSaturating(t *testing.T) {
	const u = goods.Unlimited
	const top = u / 4 // Terms.Validate's magnitude bound
	slacks := []goods.Money{0, 1, 2, top - 1, top, u / 2, u - 1, u, u + 1, math.MaxInt64 - 1, math.MaxInt64}
	amounts := []goods.Money{0, 1, top / 2, top - 1, top}
	families := []func(Stakes, ExposureCaps) Bands{
		func(s Stakes, _ ExposureCaps) Bands { return SafeBands(s) },
		func(_ Stakes, c ExposureCaps) Bands { return TrustAwareBands(c) },
		CombinedBands,
	}
	check := func(ctx bandCtx, costD, worthD goods.Money) {
		t.Helper()
		lo, hi := ctx.rangeAt(costD, worthD)
		wantLo, wantHi := ctx.rangeAtSat(costD, worthD)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("%+v at (%d, %d): rangeAt = [%d, %d], saturating = [%d, %d]",
				ctx, costD, worthD, lo, hi, wantLo, wantHi)
		}
	}
	checked := 0
	for _, family := range families {
		for _, price := range amounts {
			for _, cost := range amounts {
				for _, worth := range amounts {
					for _, a := range slacks {
						for _, b := range slacks {
							bands := family(Stakes{Supplier: a, Consumer: b}, ExposureCaps{Supplier: b, Consumer: a})
							ctx := bandCtx{bands: bands, price: price, totalCost: cost, totalWorth: worth}
							for _, cd := range []goods.Money{0, 1, cost / 2, cost - 1, cost} {
								for _, wd := range []goods.Money{0, 1, worth / 2, worth - 1, worth} {
									check(ctx, max(cd, 0), max(wd, 0))
									checked++
								}
							}
						}
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	money := func(hi goods.Money) goods.Money { return goods.Money(rng.Int63n(int64(hi) + 1)) }
	slack := func() goods.Money {
		if rng.Intn(3) == 0 {
			return slacks[rng.Intn(len(slacks))]
		}
		return money(math.MaxInt64 - 1)
	}
	for trial := 0; trial < 200000; trial++ {
		bands := families[rng.Intn(len(families))](Stakes{Supplier: slack(), Consumer: slack()},
			ExposureCaps{Supplier: slack(), Consumer: slack()})
		ctx := bandCtx{bands: bands, price: money(top), totalCost: money(top), totalWorth: money(top)}
		check(ctx, money(ctx.totalCost), money(ctx.totalWorth))
		checked++
	}
	if checked < 500000 {
		t.Fatalf("only %d states checked", checked)
	}
}
