package exchange

import (
	"trustcoop/internal/goods"
)

// MinimalStake returns the smallest total reputation stake Δ = δs + δc that
// makes a safe sequence exist for the terms, assuming the terms are mutually
// beneficial (so the order-independent boundary conditions already hold at
// Δ = 0). The value is computed over the Lawler delivery order and is exact
// whenever every item surplus is non-negative; for bundles with
// negative-surplus items it is an upper bound.
//
// For an isolated exchange (Δ = 0 available) the paper notes no safe
// sequence exists unless some item is free to deliver; correspondingly
// MinimalStake is at least the smallest item cost, and exactly that for
// non-negative-surplus bundles:
// Δ* = max_k [ Vs(R_k) − Vc(R_k \ {x_k}) ] over the optimal order, whose
// final term is Vs of the last-delivered (cheapest) item.
func MinimalStake(t Terms) goods.Money {
	order := lawlerOrder(t.Bundle)
	// The terms are not validated here, so the band edges saturate.
	ctx := newBandCtx(t, SafeBands(Stakes{}))
	var cd, wd goods.Money
	var worst goods.Money // largest deliverability deficit found
	for _, it := range order {
		_, hiHere := ctx.rangeAtSat(cd, wd)
		loNext, _ := ctx.rangeAtSat(cd+it.Cost, wd+it.Worth)
		if deficit := loNext.SubSat(hiHere); deficit > worst {
			worst = deficit
		}
		cd += it.Cost
		wd += it.Worth
	}
	return worst.ClampNonNeg()
}

// MinimalExposure returns the smallest symmetric exposure cap L (applied as
// Ls = Lc = L) that makes a trust-aware sequence exist for the terms,
// computed over the ascending-cost order (exact for non-negative-surplus
// bundles). The supplier must sink at least the cheapest item's cost before
// any value exists to pay against, so L is at least half that cost.
func MinimalExposure(t Terms) goods.Money {
	order := t.Bundle.SortedByCost()
	// The deliverability deficit for symmetric caps satisfies
	// Vs(x) ≤ (Vc(D)−Vs(D)) + 2L, so the minimal L is half the worst deficit
	// against the zero-cap band, plus the settlement boundary conditions.
	var cd, wd goods.Money
	var worst goods.Money
	for _, it := range order {
		// Deficit with L = 0: lo = cd+cost, hi = wd ⇒ deficit = cd+cost−wd.
		deficit := cd + it.Cost - wd
		if deficit > worst {
			worst = deficit
		}
		cd += it.Cost
		wd += it.Worth
	}
	// Boundary: final settlement needs price ≤ Vc(G) + Lc and
	// price ≥ Vs(G) − Ls.
	needC := t.Price - t.Bundle.TotalWorth()
	needS := t.Bundle.TotalCost() - t.Price
	half := (worst + 1) / 2 // ceil(worst/2): Ls and Lc each absorb half
	l := goods.MaxMoney(half, goods.MaxMoney(needC, needS))
	return l.ClampNonNeg()
}
