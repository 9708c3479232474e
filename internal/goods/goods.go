package goods

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Item is one indivisible chunk of the good being exchanged: x in the paper,
// with Vs(x) = Cost (what producing and delivering x costs the supplier) and
// Vc(x) = Worth (what x is worth to the consumer). Both valuations are common
// knowledge between the partners, as assumed in §2 of the paper.
type Item struct {
	ID    string
	Cost  Money // Vs(x): the supplier's cost of delivering x
	Worth Money // Vc(x): the consumer's value of x
}

// Surplus is the welfare created by delivering the item: Vc(x) − Vs(x).
func (it Item) Surplus() Money { return it.Worth - it.Cost }

// Bundle is the set of goods covered by one exchange agreement. Items are
// identified by ID; valuations are additive across items.
type Bundle struct {
	Items []Item
}

// ErrEmptyBundle is returned when an operation requires at least one item.
var ErrEmptyBundle = errors.New("goods: empty bundle")

// idKey stands for one item's ID in Validate's duplicate search: its bundle
// position, its length and its first and last eight bytes packed into
// integers. Two IDs of at most 16 bytes are equal exactly when their keys
// agree on all but the position; longer IDs fall back to the strings.
type idKey struct {
	head, tail uint64
	n, pos     int
}

func newIDKey(id string, pos int) idKey {
	k := idKey{n: len(id), pos: pos}
	for i := 0; i < k.n && i < 8; i++ {
		k.head = k.head<<8 | uint64(id[i])
	}
	for i := max(8, k.n-8); i < k.n; i++ {
		k.tail = k.tail<<8 | uint64(id[i])
	}
	return k
}

// smallBundle is the largest bundle whose keys Validate sorts in a stack
// buffer; larger ones take a buffer from seenPool.
const smallBundle = 32

// seenPool recycles Validate's key buffers for bundles past smallBundle.
// Validation runs on every exchange.Schedule call (the market hot path
// schedules thousands of bundles per second); sorting reused keys finds
// duplicate IDs without hashing a string or allocating.
var seenPool = sync.Pool{New: func() any { return new([]idKey) }}

// NewBundle copies items into a fresh Bundle and validates it.
func NewBundle(items ...Item) (Bundle, error) {
	b := Bundle{Items: make([]Item, len(items))}
	copy(b.Items, items)
	if err := b.Validate(); err != nil {
		return Bundle{}, err
	}
	return b, nil
}

// Validate checks the structural invariants: at least one item, unique
// non-empty IDs, non-negative cost and worth. (Negative-surplus items are
// legal — an item may cost the supplier more than it is worth to the consumer
// — but negative absolute valuations are not meaningful in the model.) The
// first offending item in bundle order is reported; for one item an empty
// ID goes before a repeated ID, which goes before its valuations.
func (b Bundle) Validate() error {
	if len(b.Items) == 0 {
		return ErrEmptyBundle
	}
	dup := firstRepeat(b.Items)
	for i, it := range b.Items {
		if it.ID == "" {
			return fmt.Errorf("goods: item %d has empty ID", i)
		}
		if i == dup {
			return fmt.Errorf("goods: duplicate item ID %q", it.ID)
		}
		if err := it.checkValuations(); err != nil {
			return err
		}
	}
	return nil
}

// pairwiseBundle is the largest bundle whose keys firstRepeat compares
// pair by pair: up to 120 key comparisons cost less than sorting the keys.
const pairwiseBundle = 16

// firstRepeat returns the smallest position whose item ID already occurs at
// an earlier position, or −1 when the IDs are distinct.
func firstRepeat(items []Item) int {
	if len(items) <= pairwiseBundle {
		var keys [pairwiseBundle]idKey
		for i, it := range items {
			keys[i] = newIDKey(it.ID, i)
			for j := range i {
				if sameID(items, keys[j], keys[i]) {
					return i
				}
			}
		}
		return -1
	}
	if len(items) <= smallBundle {
		var small [smallBundle]idKey
		return firstRepeatIn(items, small[:0])
	}
	buf := seenPool.Get().(*[]idKey)
	*buf = slices.Grow((*buf)[:0], len(items))
	dup := firstRepeatIn(items, *buf)
	seenPool.Put(buf)
	return dup
}

// firstRepeatIn is firstRepeat with its keys appended to keys, which
// allocates nothing when keys has room for all of them.
func firstRepeatIn(items []Item, keys []idKey) int {
	for i, it := range items {
		keys = append(keys, newIDKey(it.ID, i))
	}
	// compareIDs is 0 exactly for equal IDs and orders unequal ones in a
	// fixed, not lexicographic, way.
	compareIDs := func(a, b idKey) int {
		if a.head != b.head {
			return cmp.Compare(a.head, b.head)
		}
		if a.tail != b.tail {
			return cmp.Compare(a.tail, b.tail)
		}
		if a.n != b.n || a.n <= 16 {
			return cmp.Compare(a.n, b.n)
		}
		return strings.Compare(items[a.pos].ID, items[b.pos].ID)
	}
	// Equal IDs end up adjacent, ordered by position.
	slices.SortFunc(keys, func(a, b idKey) int {
		if c := compareIDs(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	dup := -1
	for k := 1; k < len(keys); k++ {
		if b := keys[k]; compareIDs(keys[k-1], b) == 0 && (dup < 0 || b.pos < dup) {
			dup = b.pos
		}
	}
	return dup
}

// sameID reports whether the items a and b stand for share an ID: the
// equality test of firstRepeatIn's compareIDs, kept apart so it inlines.
func sameID(items []Item, a, b idKey) bool {
	return a.head == b.head && a.tail == b.tail && a.n == b.n &&
		(a.n <= 16 || items[a.pos].ID == items[b.pos].ID)
}

// checkValuations reports a negative cost, then a negative worth.
func (it Item) checkValuations() error {
	if it.Cost < 0 {
		return fmt.Errorf("goods: item %q has negative cost %v", it.ID, it.Cost)
	}
	if it.Worth < 0 {
		return fmt.Errorf("goods: item %q has negative worth %v", it.ID, it.Worth)
	}
	return nil
}

// Len reports the number of items.
func (b Bundle) Len() int { return len(b.Items) }

// TotalCost is Vs(G): the supplier's total cost of the whole bundle.
func (b Bundle) TotalCost() Money {
	var sum Money
	for _, it := range b.Items {
		sum += it.Cost
	}
	return sum
}

// TotalWorth is Vc(G): the consumer's total value of the whole bundle.
func (b Bundle) TotalWorth() Money {
	var sum Money
	for _, it := range b.Items {
		sum += it.Worth
	}
	return sum
}

// TotalSurplus is the welfare created by completing the exchange:
// Vc(G) − Vs(G).
func (b Bundle) TotalSurplus() Money { return b.TotalWorth() - b.TotalCost() }

// Clone returns a deep copy of the bundle.
func (b Bundle) Clone() Bundle {
	items := make([]Item, len(b.Items))
	copy(items, b.Items)
	return Bundle{Items: items}
}

// CompareByCost is the canonical (ascending Cost, tie-break ID) item order
// shared by every sort site — bundle views, the scheduler's candidate-order
// buffers, and the exact search — so they can never silently diverge.
func CompareByCost(a, b Item) int {
	if a.Cost != b.Cost {
		return cmp.Compare(a.Cost, b.Cost)
	}
	return cmp.Compare(a.ID, b.ID)
}

// CompareByWorth is the canonical (ascending Worth, tie-break ID) item order.
func CompareByWorth(a, b Item) int {
	if a.Worth != b.Worth {
		return cmp.Compare(a.Worth, b.Worth)
	}
	return cmp.Compare(a.ID, b.ID)
}

// SortedByCost returns a copy of the items ordered by ascending Cost,
// breaking ties by ID for determinism.
func (b Bundle) SortedByCost() []Item {
	items := make([]Item, len(b.Items))
	copy(items, b.Items)
	slices.SortFunc(items, CompareByCost)
	return items
}

// SortedByWorth returns a copy of the items ordered by ascending Worth,
// breaking ties by ID for determinism.
func (b Bundle) SortedByWorth() []Item {
	items := make([]Item, len(b.Items))
	copy(items, b.Items)
	slices.SortFunc(items, CompareByWorth)
	return items
}

// PriceAt returns the agreed total price P that grants the consumer the given
// fraction of the total surplus: P = Vs(G) + (1−fraction)·surplus... more
// precisely, fraction 0 prices at supplier cost (all surplus to the
// consumer), fraction 1 prices at consumer worth (all surplus to the
// supplier). The fraction is clamped into [0, 1]. For a negative-surplus
// bundle the price still interpolates between cost and worth.
func (b Bundle) PriceAt(supplierShare float64) Money {
	if supplierShare < 0 {
		supplierShare = 0
	}
	if supplierShare > 1 {
		supplierShare = 1
	}
	cost := b.TotalCost()
	surplus := b.TotalSurplus()
	return cost + Money(supplierShare*float64(surplus))
}
