package goods

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Distribution selects the shape of randomly generated item costs.
type Distribution int

// Supported cost distributions. Uniform and Pareto match the standard
// e-commerce workload assumptions (many cheap chunks, few expensive ones);
// Equal produces identical chunks (the MP3-track case from the paper's §3
// examples, where every chunk of a file costs the same to serve).
const (
	Uniform Distribution = iota + 1
	Pareto
	Equal
)

// String implements fmt.Stringer for experiment table labels.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Pareto:
		return "pareto"
	case Equal:
		return "equal"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// GenConfig parameterises random bundle generation. The zero value is not
// usable; start from DefaultGenConfig.
type GenConfig struct {
	Items        int          // number of items in the bundle
	Dist         Distribution // cost distribution
	MeanCost     Money        // target mean item cost
	MarginMin    float64      // minimum consumer margin: Worth = Cost·(1+margin)
	MarginMax    float64      // maximum consumer margin
	NegFraction  float64      // fraction of items forced to negative surplus
	ZeroCostLast bool         // force one zero-cost item (digital-goods tail)
}

// DefaultGenConfig returns the baseline workload used across experiments:
// 8 uniform items with mean cost 10 units and 20–60% consumer margins.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Items:     8,
		Dist:      Uniform,
		MeanCost:  10 * Unit,
		MarginMin: 0.2,
		MarginMax: 0.6,
	}
}

// paretoAlpha is the shape of Pareto-distributed item costs.
const paretoAlpha = 1.5

// Generate draws a random bundle according to cfg using rng. It returns an
// error when cfg is malformed. Item IDs are "g0", "g1", … in generation
// order.
func Generate(cfg GenConfig, rng *rand.Rand) (Bundle, error) {
	return GenerateInto(nil, cfg, rng)
}

// GenerateInto is Generate drawing into items' backing array when it has
// room for cfg.Items, so a caller that recycles a finished bundle's items
// allocates nothing. It draws exactly Generate's stream and overwrites
// every item it returns.
func GenerateInto(items []Item, cfg GenConfig, rng *rand.Rand) (Bundle, error) {
	if cfg.Items <= 0 {
		return Bundle{}, fmt.Errorf("goods: generate: item count %d must be positive", cfg.Items)
	}
	if cfg.MeanCost <= 0 {
		return Bundle{}, fmt.Errorf("goods: generate: mean cost %v must be positive", cfg.MeanCost)
	}
	if cfg.MarginMax < cfg.MarginMin {
		return Bundle{}, fmt.Errorf("goods: generate: margin range [%g, %g] inverted", cfg.MarginMin, cfg.MarginMax)
	}
	if cfg.NegFraction < 0 || cfg.NegFraction > 1 {
		return Bundle{}, fmt.Errorf("goods: generate: negative-surplus fraction %g outside [0,1]", cfg.NegFraction)
	}
	if cap(items) < cfg.Items {
		items = make([]Item, cfg.Items)
	}
	items = items[:cfg.Items]
	for i := range items {
		cost := drawCost(cfg, rng)
		margin := cfg.MarginMin + rng.Float64()*(cfg.MarginMax-cfg.MarginMin)
		worth := Money(float64(cost) * (1 + margin))
		items[i] = Item{ID: genID(i), Cost: cost, Worth: worth}
	}
	if cfg.ZeroCostLast {
		items[len(items)-1].Cost = 0
	}
	if cfg.NegFraction > 0 {
		// Deterministically flip the first k items to negative surplus:
		// worth strictly below cost but still non-negative.
		k := int(math.Round(cfg.NegFraction * float64(len(items))))
		for i := 0; i < k && i < len(items); i++ {
			if items[i].Cost == 0 {
				items[i].Cost = Unit
			}
			items[i].Worth = items[i].Cost / 2
		}
	}
	// IDs are distinct and non-empty by construction; only the valuations
	// can still break the bundle invariants (a margin below −1, or a cost
	// past the int64 range).
	for _, it := range items {
		if err := it.checkValuations(); err != nil {
			return Bundle{}, fmt.Errorf("goods: generate: %w", err)
		}
	}
	return Bundle{Items: items}, nil
}

// genIDs holds the IDs of the first 256 generated items, so sessions format
// no ID at the bundle sizes experiments use.
var genIDs = func() (ids [256]string) {
	for i := range ids {
		ids[i] = "g" + strconv.Itoa(i)
	}
	return ids
}()

// genID is the ID of the i-th generated item: "g0", "g1", …
func genID(i int) string {
	if i < len(genIDs) {
		return genIDs[i]
	}
	return "g" + strconv.Itoa(i)
}

func drawCost(cfg GenConfig, rng *rand.Rand) Money {
	switch cfg.Dist {
	case Equal:
		return cfg.MeanCost
	case Pareto:
		// Pareto with mean = xm·alpha/(alpha−1) == MeanCost.
		xm := float64(cfg.MeanCost) * (paretoAlpha - 1) / paretoAlpha
		u := rng.Float64()
		if u == 0 {
			u = 1e-12
		}
		v := xm / math.Pow(u, 1/paretoAlpha)
		// Cap at 20× mean so a single draw cannot dominate a whole experiment.
		if max := 20 * float64(cfg.MeanCost); v > max {
			v = max
		}
		return Money(v)
	default: // Uniform on [0.2, 1.8]·mean keeps the mean and bounded spread.
		lo := 0.2 * float64(cfg.MeanCost)
		hi := 1.8 * float64(cfg.MeanCost)
		return Money(lo + rng.Float64()*(hi-lo))
	}
}
