package eval

import (
	"fmt"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

// E12Config parameterises the evidence-plane ablation.
type E12Config struct {
	Seed       int64
	Sessions   int // marketplace sessions per cell; 0 means 400
	Population int // agents, a third of them cheaters; 0 means 18
	// Periods is the sync-period sweep shared by every kind; a 0 entry
	// means ∞ (gossip off, isolated shards). nil means DefaultE11Periods —
	// the matched shape that makes the complaint rows byte-identical to
	// E11's.
	Periods []int
	// Trials replicates every cell over seed-derived marketplaces, exactly
	// as E11 does; 0 means 3.
	Trials int
	// Kinds is the evidence-kind sweep; nil means complaints then
	// posterior. The posterior rows' estimators start from the
	// complaint-matched prior Beta(4, 1).
	Kinds []trust.EvidenceKind
	// Topology and Fanout shape the exchange fabric of every gossiping
	// cell; zero values mean full mesh.
	Topology gossip.Topology
	Fanout   int
	// Export is the posterior rows' gossip export policy (codec,
	// quantization, selective export); the zero value keeps the PR 5 dense
	// wire. Complaint rows ignore it. Non-zero policies show in the title;
	// E13 sweeps this axis.
	Export trust.ExportPolicy
	// Workers is the trial worker pool; 0 means DefaultWorkers().
	Workers int
	// EnginesPerCell bounds concurrent sub-engines per cell; pure
	// parallelism, never changes the table.
	EnginesPerCell int
}

// DefaultE12Kinds is the kind sweep: the P2P complaint model and the
// Bayesian posterior model, the two trust models the paper delegates to.
func DefaultE12Kinds() []trust.EvidenceKind {
	return []trust.EvidenceKind{trust.EvidenceComplaints, trust.EvidencePosterior}
}

func (c E12Config) withDefaults() E12Config {
	if c.Sessions <= 0 {
		c.Sessions = 400
	}
	if c.Population <= 0 {
		c.Population = 18
	}
	if len(c.Periods) == 0 {
		c.Periods = DefaultE11Periods()
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if len(c.Kinds) == 0 {
		c.Kinds = DefaultE12Kinds()
	}
	return c
}

// E12EvidencePlane is the generalised-evidence-plane ablation: the E11
// marketplace (same population, same seeds, same period sweep) run once per
// evidence kind, so the complaint model's gossip and the Bayesian posterior
// model's gossip are directly comparable — per kind against that kind's own
// single-engine baseline, and across kinds at matched periods. The
// complaint rows are the E11 cells verbatim (byte-identical at matched
// shape — the refactored fabric is the same data path); the posterior rows
// are what the evidence plane newly unlocks: an estimator-backed cell whose
// shards exchange Beta-posterior deltas instead of complaint counts. Each
// kind's loss gap to its own baseline shrinks monotonically as the period
// falls, and at period 1 over a full mesh the posterior cell *is* the
// unsharded estimator plane — every shard's book bit-equal to one shared
// set of per-agent estimators (test-enforced).
func E12EvidencePlane(cfg E12Config) (*Table, error) {
	return periodSweep("E12",
		"evidence-plane ablation: complaint vs posterior gossip over %s (period ∞ = isolated shards, gap vs own single-engine baseline, posterior prior matched to complaint evidence-free trust)",
		cfg, true)
}

// periodSweep renders the E11/E12 period sweep: one block per evidence
// kind, each the period rows followed by that kind's single-engine
// baseline, which every row of the block measures its gap against. kindCol
// adds the leading evidence column; titleFmt receives the fabric shape.
func periodSweep(id, titleFmt string, cfg E12Config, kindCol bool) (*Table, error) {
	cfg = cfg.withDefaults()
	a := &ablation{seed: cfg.Seed, trials: cfg.Trials, workers: cfg.Workers}
	for _, kind := range cfg.Kinds {
		baseRow := len(a.rows) + len(cfg.Periods)
		add := func(label string, c ablationCell) {
			labels := []string{label}
			if kindCol {
				labels = []string{string(kind), label}
			}
			a.rows = append(a.rows, ablationRow{labels: labels, cell: c, base: baseRow})
		}
		base := ablationCell{Sessions: cfg.Sessions, Population: cfg.Population, Evidence: kind,
			Export: cfg.Export, Shards: 1, Engines: cfg.EnginesPerCell}
		for _, period := range cfg.Periods {
			c := base
			c.Shards = DefaultCellShards
			c.Gossip = gossip.Config{Period: period, Topology: cfg.Topology, Fanout: cfg.Fanout}
			label := itoa(period)
			if period == 0 {
				label = "∞"
			}
			add(label, c)
		}
		add("single engine", base)
	}
	var labelCols []string
	if kindCol {
		labelCols = []string{"evidence"}
	}
	title := cellCaveats{Shards: DefaultCellShards, Export: cfg.Export}.annotate(
		fmt.Sprintf(titleFmt, fabricShape(cfg.Topology, cfg.Fanout)))
	return a.table(id, title, append(labelCols, "period"), []string{"sync rounds"},
		func(r int) []string { return []string{a.syncRounds(r)} })
}
