package eval

import (
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

// E11Config parameterises the gossip-period ablation.
type E11Config struct {
	Seed       int64
	Sessions   int // marketplace sessions per cell; 0 means 400
	Population int // agents, a third of them cheaters; 0 means 18
	// Periods is the sync-period sweep; a 0 entry means ∞ (gossip off,
	// isolated shards — exactly the PR 3 information structure). nil means
	// DefaultE11Periods.
	Periods []int
	// Trials replicates every cell (and the baseline) over seed-derived
	// marketplaces and reports per-row means; 0 means 3.
	Trials int
	// Topology and Fanout shape the exchange fabric of every gossiping
	// cell; zero values mean full mesh.
	Topology gossip.Topology
	Fanout   int
	// ExchangeLatency adds the wall-clock exchange-latency percentile
	// column, exactly as E12Config.ExchangeLatency does.
	ExchangeLatency bool
	// Workers is the trial worker pool; 0 means DefaultWorkers().
	Workers int
	// EnginesPerCell bounds concurrent sub-engines per cell; pure
	// parallelism, never changes the table.
	EnginesPerCell int
}

// DefaultE11Periods is the sweep of the ablation: from isolated shards
// (∞, spelled 0) through coarse and fine gossip down to per-session sync.
func DefaultE11Periods() []int { return []int{0, 64, 16, 4, 1} }

// E11GossipPeriod sweeps the cross-shard gossip period of a sharded
// trust-aware cell: the same marketplace decomposition (same seed, same
// population, same per-shard session streams) where only how often the
// shards exchange complaint evidence varies. Period ∞ is PR 3's isolated
// shards — each sub-engine learns trust exclusively from its own sessions —
// and the sweep interpolates towards the single-engine information
// structure, which runs as the baseline row. The table reports the
// cooperation outcomes, the honest-victim loss (the cost of trusting
// cheaters on missing evidence — false trust), the gap of that loss to the
// single-engine baseline, and the gossip traffic that bought the
// improvement. Decreasing the period monotonically shrinks the gap: cheap
// second-hand monitoring substitutes for first-hand experience, exactly the
// trust-as-reduced-monitoring reading of the paper's reputation mechanism.
//
// E11 is E12's complaint-kind sweep without the evidence column.
func E11GossipPeriod(cfg E11Config) (*Table, error) {
	return periodSweep("E11",
		"gossip-period ablation: cross-shard complaint exchange over %s (period ∞ = isolated shards)",
		E12Config{
			Seed:            cfg.Seed,
			Sessions:        cfg.Sessions,
			Population:      cfg.Population,
			Periods:         cfg.Periods,
			Trials:          cfg.Trials,
			Kinds:           []trust.EvidenceKind{trust.EvidenceComplaints},
			Topology:        cfg.Topology,
			Fanout:          cfg.Fanout,
			ExchangeLatency: cfg.ExchangeLatency,
			Workers:         cfg.Workers,
			EnginesPerCell:  cfg.EnginesPerCell,
		}, false)
}
