package exchange

import (
	"cmp"
	"slices"
	"sync"

	"trustcoop/internal/goods"
)

// orderKind names one member of the heuristic delivery-order portfolio.
// Orders are derived lazily from at most two sorts of the bundle, so trying
// the first (usually sufficient) candidate never pays for the rest.
type orderKind int

const (
	ordDescCost   orderKind = iota // Lawler order: descending supplier cost
	ordAscCost                     // ascending supplier cost
	ordAscWorth                    // ascending consumer worth
	ordDescWorth                   // descending consumer worth
	ordAscSurplus                  // ascending surplus Vc−Vs
)

// schedScratch holds the reusable buffers of one Schedule call: the sorted
// item views the candidate orders are cut from, the payment-sequence
// construction buffer, and the bundle index PlanForOrder checks an order
// with. Instances are pooled; all slices keep their capacity across calls
// so the steady state allocates nothing beyond the returned plan.
type schedScratch struct {
	byCost    []goods.Item // ascending cost, tie-break ID
	byWorth   []goods.Item // ascending worth, tie-break ID
	bySurplus []goods.Item // ascending surplus, tie-break ID
	reversed  []goods.Item // reversal buffer for the descending orders
	seq       Sequence     // payment-plan construction buffer
	delivered []uint64     // itemIndex bitset over byCost positions

	haveCost, haveWorth, haveSurplus bool
}

var scratchPool = sync.Pool{New: func() any { return new(schedScratch) }}

func getScratch() *schedScratch  { return scratchPool.Get().(*schedScratch) }
func putScratch(s *schedScratch) { s.reset(); scratchPool.Put(s) }

func (s *schedScratch) reset() {
	s.haveCost, s.haveWorth, s.haveSurplus = false, false, false
	s.byCost = s.byCost[:0]
	s.byWorth = s.byWorth[:0]
	s.bySurplus = s.bySurplus[:0]
	s.reversed = s.reversed[:0]
	s.seq = s.seq[:0]
}

func (s *schedScratch) sortedByCost(b goods.Bundle) []goods.Item {
	if !s.haveCost {
		s.byCost = append(s.byCost[:0], b.Items...)
		sortByCost(s.byCost)
		s.haveCost = true
	}
	return s.byCost
}

// insertionSortMax is the largest bundle sortByCost sorts by insertion.
const insertionSortMax = 12

// sortByCost sorts items into the canonical (cost, ID) order of
// goods.CompareByCost. A small bundle, the marketplace's usual, is sorted by
// insertion with the comparison written out, where the generic sort calls
// it through a function value at every step (about 2.5 times slower on
// 8-item bundles).
func sortByCost(items []goods.Item) {
	if len(items) > insertionSortMax {
		slices.SortFunc(items, goods.CompareByCost)
		return
	}
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i
		for ; j > 0 && (items[j-1].Cost > it.Cost || items[j-1].Cost == it.Cost && items[j-1].ID > it.ID); j-- {
			items[j] = items[j-1]
		}
		items[j] = it
	}
}

func (s *schedScratch) sortedByWorth(b goods.Bundle) []goods.Item {
	if !s.haveWorth {
		s.byWorth = append(s.byWorth[:0], b.Items...)
		slices.SortFunc(s.byWorth, goods.CompareByWorth)
		s.haveWorth = true
	}
	return s.byWorth
}

func (s *schedScratch) sortedBySurplus(b goods.Bundle) []goods.Item {
	if !s.haveSurplus {
		s.bySurplus = append(s.bySurplus[:0], b.Items...)
		slices.SortFunc(s.bySurplus, func(a, c goods.Item) int {
			if sa, sc := a.Surplus(), c.Surplus(); sa != sc {
				return cmp.Compare(sa, sc)
			}
			return cmp.Compare(a.ID, c.ID)
		})
		s.haveSurplus = true
	}
	return s.bySurplus
}

// orderOf materialises one candidate order. Ascending orders are returned as
// direct views of the sorted buffers; descending orders are reversed into the
// shared reversal buffer, which stays valid until the next orderOf call.
func (s *schedScratch) orderOf(kind orderKind, b goods.Bundle) []goods.Item {
	switch kind {
	case ordAscCost:
		return s.sortedByCost(b)
	case ordDescCost:
		return s.reverseInto(s.sortedByCost(b))
	case ordAscWorth:
		return s.sortedByWorth(b)
	case ordDescWorth:
		return s.reverseInto(s.sortedByWorth(b))
	default: // ordAscSurplus
		return s.sortedBySurplus(b)
	}
}

// itemIndex indexes the bundle through the cost-sorted view and clears the
// delivered bits, which PlanForOrder's check of a caller-chosen order marks
// (as does the tests' replay of a plan), so it is rebuilt per use.
func (s *schedScratch) itemIndex(b goods.Bundle) itemIndex {
	words := (len(b.Items) + 63) / 64
	s.delivered = slices.Grow(s.delivered[:0], words)[:words]
	clear(s.delivered)
	return itemIndex{byCost: s.sortedByCost(b), delivered: s.delivered}
}

func (s *schedScratch) reverseInto(items []goods.Item) []goods.Item {
	s.reversed = s.reversed[:0]
	for i := len(items) - 1; i >= 0; i-- {
		s.reversed = append(s.reversed, items[i])
	}
	return s.reversed
}

// The portfolio per band family: the provably-good order first, then the
// alternates (first-occurrence order of the historical portfolio, with the
// duplicate descending-cost entry of the safety-only case removed — retrying
// an identical order cannot change the outcome).
var (
	kindsSafety   = []orderKind{ordDescCost, ordAscWorth, ordDescWorth, ordAscSurplus}
	kindsExposure = []orderKind{ordAscCost, ordDescCost, ordAscWorth, ordDescWorth, ordAscSurplus}
	kindsCombined = []orderKind{ordDescCost, ordAscCost, ordAscWorth, ordDescWorth, ordAscSurplus}
)

// candidateKinds selects the portfolio for the active band family.
func candidateKinds(b Bands) []orderKind {
	switch {
	case b.Safety && !b.Exposure:
		return kindsSafety
	case b.Exposure && !b.Safety:
		return kindsExposure
	default:
		return kindsCombined
	}
}

// itemIndex is a bundle's items in the canonical (cost, ID) order, with one
// bit per position marking the items already delivered. Bundle IDs are
// unique once the terms are validated, so (cost, ID) names an item exactly.
type itemIndex struct {
	byCost    []goods.Item
	delivered []uint64
}

// lookup returns the position of the bundle item with d's ID, and whether
// that item is still undelivered; its valuations may differ from d's.
func (x itemIndex) lookup(d goods.Item) (int, bool) {
	// Lower bound of d in the (cost, ID) order, written out so the
	// comparison inlines.
	k, n := 0, len(x.byCost)
	for hi := n; k < hi; {
		h := int(uint(k+hi) >> 1)
		if b := x.byCost[h]; b.Cost < d.Cost || (b.Cost == d.Cost && b.ID < d.ID) {
			k = h + 1
		} else {
			hi = h
		}
	}
	if k == n || x.byCost[k].Cost != d.Cost || x.byCost[k].ID != d.ID {
		// Not at d's (cost, ID) slot: the ID may still be in the bundle at
		// another cost.
		if k = slices.IndexFunc(x.byCost, func(b goods.Item) bool { return b.ID == d.ID }); k < 0 {
			return 0, false
		}
	}
	return k, x.delivered[k/64]&(1<<(k%64)) == 0
}

// deliver marks position k delivered.
func (x itemIndex) deliver(k int) { x.delivered[k/64] |= 1 << (k % 64) }
