package eval

import (
	"fmt"
	"math/rand"

	"trustcoop/internal/agent"
	"trustcoop/internal/decision"
	"trustcoop/internal/market"
)

// E6Config parameterises the risk-averseness sweep.
type E6Config struct {
	Seed       int64
	Sessions   int       // 0 means 400
	Population int       // 0 means 18
	Alphas     []float64 // CARA coefficients; nil means {0, 0.05, 0.2, 0.8}
	CellSpec
}

func (c E6Config) withDefaults() E6Config {
	if c.Sessions <= 0 {
		c.Sessions = 400
	}
	if c.Population <= 0 {
		c.Population = 18
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{0, 0.05, 0.2, 0.8}
	}
	c.CellSpec = c.resolved()
	return c
}

// E6RiskAversion sweeps the population's risk averseness (the "risk
// averseness related inputs" of the paper's decision module) against the
// adversary that specifically exploits risk-neutral trust growth: the
// backstabber cooperates until exposure caps have grown, then takes the
// money. More risk-averse policies (larger CARA α) bound exposure growth —
// trading a little welfare for sharply lower worst-case losses. Each α cell
// is an independent marketplace run sharded over the trial worker pool.
func E6RiskAversion(cfg E6Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID:    "E6",
		Title: cfg.annotate("risk averseness (CARA α) vs welfare and worst-case loss, backstabber adversary"),
		Cols:  []string{"policy", "trade rate", "completion", "welfare", "honest loss", "max loss"},
	}
	results, err := RunTrials(cfg.Workers, len(cfg.Alphas), func(ci int) (market.Result, error) {
		alpha := cfg.Alphas[ci]
		policy := func(int) decision.Policy {
			if alpha == 0 {
				return decision.RiskNeutral{}
			}
			return decision.CARA{Alpha: alpha}
		}
		cheaters := cfg.Population / 3
		pop := agent.PopConfig{
			Honest:      cfg.Population - cheaters,
			Backstabber: cheaters,
			Policy:      policy,
			Stake:       0,
		}
		agents, err := agent.NewPopulation(pop, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return market.Result{}, err
		}
		return cfg.runCell(market.Config{
			Seed:     DeriveSeed(cfg.Seed+100, ci),
			Sessions: cfg.Sessions,
			Agents:   agents,
			Strategy: market.StrategyTrustAware,
		})
	})
	if err != nil {
		return nil, err
	}
	for ci, alpha := range cfg.Alphas {
		res := results[ci]
		name := "risk-neutral"
		if alpha > 0 {
			name = fmt.Sprintf("CARA α=%g", alpha)
		}
		tbl.AddRow(
			name,
			pct(res.TradeRate()),
			pct(res.CompletionRate()),
			f1(res.Welfare.Float64()),
			f1(res.HonestVictimLoss.Float64()),
			f1(res.RealizedConsumerLoss.Max()),
		)
	}
	return tbl, nil
}
