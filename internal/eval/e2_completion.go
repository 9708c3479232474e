package eval

import (
	"math/rand"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
)

// E2Config parameterises the strategy-comparison experiment.
type E2Config struct {
	Seed       int64
	Sessions   int       // 0 means 400
	Population int       // 0 means 24
	CheaterPct []float64 // nil means {0, 0.25, 0.5}
	CellSpec
}

func (c E2Config) withDefaults() E2Config {
	if c.Sessions <= 0 {
		c.Sessions = 400
	}
	if c.Population <= 0 {
		c.Population = 24
	}
	if len(c.CheaterPct) == 0 {
		c.CheaterPct = []float64{0, 0.25, 0.5}
	}
	c.CellSpec = c.resolved()
	return c
}

// e2Strategies are the compared strategies, one row each per cheater
// fraction.
var e2Strategies = []market.Strategy{market.StrategyNaive, market.StrategySafeOnly, market.StrategyTrustAware}

// E2CompletionWelfare compares the three scheduling strategies across
// populations with growing cheater fractions: the paper's core promise is
// that trust-aware scheduling trades (almost) as often as naive exchange
// while losing (almost) as little as safe-only refusal. Each (cheater
// fraction, strategy) cell is an independent marketplace sharded across
// DefaultCellShards sub-engines (CellSpec) and over the trial worker pool,
// so even a single slow cell exploits multiple cores.
func E2CompletionWelfare(cfg E2Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID:    "E2",
		Title: cfg.annotate("strategy comparison: trade rate, completion, welfare, honest losses"),
		Cols:  []string{"cheaters", "strategy", "trade rate", "completion", "welfare", "honest loss", "safe plans"},
	}
	type cell struct {
		cheatPct float64
		strat    market.Strategy
	}
	var cells []cell
	for _, cheatPct := range cfg.CheaterPct {
		for _, strat := range e2Strategies {
			cells = append(cells, cell{cheatPct, strat})
		}
	}
	results, err := RunTrials(cfg.Workers, len(cells), func(ci int) (market.Result, error) {
		c := cells[ci]
		cheaters := int(c.cheatPct * float64(cfg.Population))
		pop := agent.PopConfig{
			Honest:      cfg.Population - cheaters,
			Opportunist: cheaters / 2,
			Backstabber: cheaters - cheaters/2,
			// Stakes stay modest: large stakes would make everything
			// safely schedulable and hide the differences.
			Stake: 2 * goods.Unit,
		}
		agents, err := agent.NewPopulation(pop, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return market.Result{}, err
		}
		return cfg.runCell(market.Config{
			Seed:     DeriveSeed(cfg.Seed, ci),
			Sessions: cfg.Sessions,
			Agents:   agents,
			Strategy: c.strat,
		})
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cells {
		res := results[ci]
		tbl.AddRow(
			pct(c.cheatPct),
			c.strat.String(),
			pct(res.TradeRate()),
			pct(res.CompletionRate()),
			f1(res.Welfare.Float64()),
			f1(res.HonestVictimLoss.Float64()),
			itoa(res.ModeSafe),
		)
	}
	return tbl, nil
}
