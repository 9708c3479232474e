package eval

import (
	"math/rand"

	"trustcoop/internal/agent"
	"trustcoop/internal/market"
	"trustcoop/internal/stats"
)

// E3Config parameterises the loss-bounding experiment.
type E3Config struct {
	Seed       int64
	Sessions   int       // 0 means 400
	Population int       // 0 means 20
	CheaterPct []float64 // nil means {0.2, 0.4, 0.6}
	CellSpec
}

func (c E3Config) withDefaults() E3Config {
	if c.Sessions <= 0 {
		c.Sessions = 400
	}
	if c.Population <= 0 {
		c.Population = 20
	}
	if len(c.CheaterPct) == 0 {
		c.CheaterPct = []float64{0.2, 0.4, 0.6}
	}
	c.CellSpec = c.resolved()
	return c
}

// E3LossExposure verifies the paper's safety property for the trust-aware
// mechanism: realised losses never exceed the exposure the parties agreed
// to risk. Lazy payments deliberately push exposure onto the supplier
// (credit is extended against trust), so the supplier side is where losses
// land; both sides are reported, with the count of sessions whose realised
// loss exceeded the planned worst case (must be 0 on both sides). Each
// cheater-fraction cell runs as an independent trial, itself sharded across
// DefaultCellShards sub-engines (CellSpec); the exposure bound is a
// per-session property, so it survives any decomposition and any gossip
// schedule — merged realised maxima stay below merged planned maxima shard
// by shard.
func E3LossExposure(cfg E3Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID:    "E3",
		Title: cfg.annotate("planned exposure bounds realised losses (trust-aware strategy)"),
		Cols: []string{"cheaters", "side", "planned mean", "planned max",
			"realised mean", "realised max", "violations"},
	}
	results, err := RunTrials(cfg.Workers, len(cfg.CheaterPct), func(ci int) (market.Result, error) {
		cheatPct := cfg.CheaterPct[ci]
		cheaters := int(cheatPct * float64(cfg.Population))
		pop := agent.PopConfig{
			Honest:      cfg.Population - cheaters,
			Opportunist: cheaters,
			Stake:       0,
		}
		agents, err := agent.NewPopulation(pop, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return market.Result{}, err
		}
		return cfg.runCell(market.Config{
			Seed:     DeriveSeed(cfg.Seed, ci),
			Sessions: cfg.Sessions,
			Agents:   agents,
			Strategy: market.StrategyTrustAware,
		})
	})
	if err != nil {
		return nil, err
	}
	for ci, cheatPct := range cfg.CheaterPct {
		res := results[ci]
		addSide := func(side string, planned, realised stats.Sample) {
			violations := 0
			if realised.Max() > planned.Max()+1e-9 {
				violations++
			}
			tbl.AddRow(
				pct(cheatPct), side,
				f2(planned.Mean()), f2(planned.Max()),
				f2(realised.Mean()), f2(realised.Max()),
				itoa(violations),
			)
		}
		addSide("supplier", res.SupplierExposure, res.RealizedSupplierLoss)
		addSide("consumer", res.ConsumerExposure, res.RealizedConsumerLoss)
	}
	return tbl, nil
}
