package eval

import (
	"errors"
	"fmt"

	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/stats"
)

// E1Config parameterises the safe-sequence existence experiment.
type E1Config struct {
	Seed    int64
	Trials  int   // bundles per (n, dist) cell; 0 means 300
	Sizes   []int // bundle sizes; nil means {2, 4, 8, 16, 32}
	Workers int   // trial worker pool; 0 means DefaultWorkers()
}

// e1Dists are the valuation distributions, one row each per bundle size.
var e1Dists = []goods.Distribution{goods.Uniform, goods.Pareto}

// e1Stakes are the stake levels, one column each, as a fraction of the
// bundle's total production cost.
var e1Stakes = []float64{0, 0.05, 0.1, 0.25}

func (c E1Config) withDefaults() E1Config {
	if c.Trials <= 0 {
		c.Trials = 300
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2, 4, 8, 16, 32}
	}
	return c
}

// E1SafeExistence measures the paper's motivating claim: "a fully safe
// exchange sequence … may not exist in many cases" — and that reputation
// stakes restore existence. For each bundle size and valuation distribution
// it reports the fraction of random bundles admitting a safe sequence at
// stake levels expressed as a fraction of the bundle's production cost, plus
// the median minimal stake (as % of cost). Cells are independent trials on
// the shard runner: each draws from its own seed-derived stream, so the
// table is identical for every worker count.
func E1SafeExistence(cfg E1Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID:    "E1",
		Title: "safe-sequence existence vs reputation stakes (fraction of bundles schedulable)",
		Cols:  []string{"items", "dist"},
	}
	for _, s := range e1Stakes {
		tbl.Cols = append(tbl.Cols, fmt.Sprintf("δ=%.0f%%cost", 100*s))
	}
	tbl.Cols = append(tbl.Cols, "median Δ*/cost")

	type cellKey struct {
		n    int
		dist goods.Distribution
	}
	var cells []cellKey
	for _, n := range cfg.Sizes {
		for _, dist := range e1Dists {
			cells = append(cells, cellKey{n, dist})
		}
	}
	type cellResult struct {
		exists    []int
		minStakes []float64
	}
	results, err := RunTrials(cfg.Workers, len(cells), func(ci int) (cellResult, error) {
		cell := cells[ci]
		rng := shardRng(cfg.Seed, ci)
		gen := goods.DefaultGenConfig()
		gen.Items = cell.n
		gen.Dist = cell.dist
		res := cellResult{exists: make([]int, len(e1Stakes))}
		for trial := 0; trial < cfg.Trials; trial++ {
			bundle, err := goods.Generate(gen, rng)
			if err != nil {
				return cellResult{}, err
			}
			terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
			cost := bundle.TotalCost()
			for i, s := range e1Stakes {
				stake := goods.Money(s * float64(cost))
				_, err := exchange.ScheduleSafe(terms, exchange.Stakes{Supplier: stake}, exchange.Options{})
				switch {
				case err == nil:
					res.exists[i]++
				case errors.Is(err, exchange.ErrNoSafeSequence):
				default:
					return cellResult{}, err
				}
			}
			res.minStakes = append(res.minStakes, exchange.MinimalStake(terms).Float64()/cost.Float64())
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cell := range cells {
		row := []string{itoa(cell.n), cell.dist.String()}
		for _, e := range results[ci].exists {
			row = append(row, pct(float64(e)/float64(cfg.Trials)))
		}
		row = append(row, pct(stats.Median(results[ci].minStakes)))
		tbl.AddRow(row...)
	}
	return tbl, nil
}
