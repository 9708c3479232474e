package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"trustcoop/internal/agent"
	"trustcoop/internal/market"
	"trustcoop/internal/stats"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

// ablationMarket is the marketplace every E10 backend cell and every gossip
// ablation cell (E11–E13) runs: a trust-aware market over a population with a
// third cheaters (half opportunists, half backstabbers) and no stakes, so
// cooperation must come from trust-aware exposure caps. The population is
// drawn from seed and the engine seeded with DeriveSeed(seed, 1), so cells
// that share a seed share the marketplace and differ only in what the
// caller varies.
func ablationMarket(seed int64, sessions, population int) (market.Config, error) {
	cheaters := population / 3
	agents, err := agent.NewPopulation(agent.PopConfig{
		Honest:      population - cheaters,
		Opportunist: cheaters / 2,
		Backstabber: cheaters - cheaters/2,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return market.Config{}, err
	}
	return market.Config{
		Seed:     DeriveSeed(seed, 1),
		Sessions: sessions,
		Agents:   agents,
		Strategy: market.StrategyTrustAware,
	}, nil
}

// ablationCell describes one marketplace cell of a gossip ablation (E11–E13):
// the shared population/seed shape where only the evidence kind, the export
// policy and the gossip schedule vary.
type ablationCell struct {
	Seed       int64
	Sessions   int
	Population int
	// Evidence "" (or complaints) runs the shared complaint model over the
	// sharded backend; posterior runs per-agent Beta estimators gossiping
	// posterior deltas.
	Evidence trust.EvidenceKind
	// Export is the posterior estimators' gossip export policy.
	Export  trust.ExportPolicy
	Gossip  gossip.Config
	Shards  int
	Engines int
	// ObserveExchange samples each inter-window exchange's wall-clock
	// duration into the cell's latency distribution. Pure measurement: the
	// merged result is byte-identical either way.
	ObserveExchange bool
}

// marketConfig renders the cell as the market configuration RunCell
// consumes. Exposed separately so the byte-identity tests can run the very
// same configuration through an independent reference implementation.
func (c ablationCell) marketConfig() (market.Config, error) {
	mc, err := ablationMarket(c.Seed, c.Sessions, c.Population)
	if err != nil {
		return market.Config{}, err
	}
	mc.Gossip = c.Gossip
	if c.Evidence == trust.EvidencePosterior {
		// The prior Beta(4, 1) matches the complaint model's evidence-free
		// trust: an unseen peer estimates at 0.8, exactly the probability
		// the complaint decision rule assigns a peer with no complaints
		// (Factor/(Factor+1) at the default factor 4). Both kinds start
		// from the same optimism, so an ablation isolates how each kind's
		// gossip claws the false trust back, not how their priors differ.
		mc.Evidence = c.Evidence
		mc.Beta = trust.BetaConfig{PriorAlpha: 4, PriorBeta: 1, Export: c.Export}
	} else {
		mc.RepStore = "sharded"
	}
	return mc, nil
}

// ablationResult is one cell's measured outcome. exch is the cell's
// wall-clock exchange-latency sample in microseconds, populated only when the
// cell observes it — it is measurement, not part of the deterministic
// result.
type ablationResult struct {
	res   market.Result
	stats gossip.Stats
	exch  stats.Distribution
}

func runAblationCell(c ablationCell) (ablationResult, error) {
	mc, err := c.marketConfig()
	if err != nil {
		return ablationResult{}, err
	}
	var out ablationResult
	var onExchange func(time.Duration)
	if c.ObserveExchange {
		onExchange = func(d time.Duration) { out.exch.Add(float64(d.Nanoseconds()) / 1e3) }
	}
	out.res, out.stats, err = RunCell(mc, c.Shards, c.Engines, onExchange)
	if err != nil {
		return ablationResult{}, fmt.Errorf("gossip %s: %w", c.Gossip, err)
	}
	return out, nil
}

// ablationRow is one table row of a replicated ablation: its leading label
// cells, the cell every trial replicates under its own seed, and the row
// whose honest loss the row's gap is measured against (a row that is its
// own base reports no gap).
type ablationRow struct {
	labels []string
	cell   ablationCell
	base   int
}

// ablation is the replicated gossip ablation E11, E12 and E13 share. Each
// row averages trials replicated marketplaces: the cells are laid out
// trial-major (trial t's rows in table order), and every cell of trial t
// draws its streams from DeriveSeed(seed, t), so every replicate is an
// independent marketplace while all rows of one trial share streams —
// within a trial the row's evidence kind, export policy and gossip schedule
// are the only varying factors. Honest-loss noise between independent
// stream draws is comparable to the gossip effect itself, so replication is
// what makes the gap column readable.
type ablation struct {
	seed    int64
	trials  int
	workers int
	// latency observes every cell's exchanges and adds the wall-clock
	// p50/p95/p99 column (merged across trials). Off by default: the
	// timings are nondeterministic, so the default table stays
	// byte-identical for the golden suite.
	latency bool
	rows    []ablationRow
	results []ablationResult // trial-major: results[t*len(rows)+r]
}

// run executes every replicate of every row on the trial worker pool.
func (a *ablation) run() error {
	n := len(a.rows)
	var err error
	a.results, err = RunTrials(a.workers, a.trials*n, func(ci int) (ablationResult, error) {
		trial, r := ci/n, ci%n
		c := a.rows[r].cell
		c.Seed = DeriveSeed(a.seed, trial)
		c.ObserveExchange = a.latency
		out, err := runAblationCell(c)
		if err != nil {
			return ablationResult{}, fmt.Errorf("%s: %w", strings.Join(a.rows[r].labels, " "), err)
		}
		return out, nil
	})
	return err
}

// mean folds row r's replicates, in trial order.
func (a *ablation) mean(r int, f func(ablationResult) float64) float64 {
	var sum float64
	for t := 0; t < a.trials; t++ {
		sum += f(a.results[t*len(a.rows)+r])
	}
	return sum / float64(a.trials)
}

func honestLoss(c ablationResult) float64 { return c.res.HonestVictimLoss.Float64() }

func bytesDelivered(c ablationResult) float64 { return float64(c.stats.BytesDelivered) }

// table runs the ablation and renders it: the label columns, the shared
// outcome, signed-gap and evidence-gossiped columns, the experiment's own
// extra columns (extra fills them per row) and, when observed, the
// exchange-latency column.
func (a *ablation) table(id, title string, labelCols, extraCols []string, extra func(r int) []string) (*Table, error) {
	if err := a.run(); err != nil {
		return nil, err
	}
	tbl := &Table{ID: id, Title: title}
	tbl.Cols = append(tbl.Cols, labelCols...)
	tbl.Cols = append(tbl.Cols, "trade rate", "completion", "welfare", "honest loss", "loss gap vs 1 engine", "evidence gossiped")
	tbl.Cols = append(tbl.Cols, extraCols...)
	if a.latency {
		tbl.Title += " — exchange latency wall-clock, nondeterministic"
		tbl.Cols = append(tbl.Cols, "exchange p50/p95/p99 µs")
	}
	for r, row := range a.rows {
		gap, gossiped := "-", "-"
		if row.base != r {
			// Signed, not |·|: overshooting below the baseline must read as
			// negative, not fold back and fake a growing gap.
			gap = f1(a.mean(r, honestLoss) - a.mean(row.base, honestLoss))
		}
		if row.cell.Gossip.Enabled() {
			gossiped = fmt.Sprintf("%.0f (%s)",
				a.mean(r, func(c ablationResult) float64 { return float64(c.stats.ComplaintsDelivered) }),
				fmtBytes(int64(a.mean(r, bytesDelivered))))
		}
		cells := append([]string(nil), row.labels...)
		cells = append(cells,
			pct(a.mean(r, func(c ablationResult) float64 { return c.res.TradeRate() })),
			pct(a.mean(r, func(c ablationResult) float64 { return c.res.CompletionRate() })),
			f1(a.mean(r, func(c ablationResult) float64 { return c.res.Welfare.Float64() })),
			f1(a.mean(r, honestLoss)),
			gap,
			gossiped,
		)
		cells = append(cells, extra(r)...)
		if a.latency {
			cells = append(cells, a.exchangeLatency(r))
		}
		tbl.AddRow(cells...)
	}
	return tbl, nil
}

// syncRounds renders row r's mean exchange-round count; "-" when the row
// never exchanged.
func (a *ablation) syncRounds(r int) string {
	if n := a.mean(r, func(c ablationResult) float64 { return float64(c.stats.Rounds) }); n > 0 {
		return itoa(int(n))
	}
	return "-"
}

// exchangeLatency folds row r's wall-clock exchange samples across trials
// into a p50/p95/p99 cell; "-" when nothing gossiped.
func (a *ablation) exchangeLatency(r int) string {
	var d stats.Distribution
	for t := 0; t < a.trials; t++ {
		d.Merge(a.results[t*len(a.rows)+r].exch)
	}
	if d.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f/%.0f", d.Percentile(50), d.Percentile(95), d.Percentile(99))
}

// fabricShape renders the fabric shape for the table title — topology plus
// the fanout cap, which is an information-structure change of its own
// (fanout-limited meshes permanently skip peers) and so must be visible.
func fabricShape(t gossip.Topology, fanout int) string {
	if t == "" {
		t = gossip.TopologyMesh
	}
	if t == gossip.TopologyMesh && fanout > 0 {
		return fmt.Sprintf("%s fanout %d", t, fanout)
	}
	return string(t)
}

// fmtBytes renders a byte count compactly for table cells.
func fmtBytes(b int64) string {
	if b >= 10*1024 {
		return fmt.Sprintf("%.0fKiB", float64(b)/1024)
	}
	return fmt.Sprintf("%dB", b)
}
