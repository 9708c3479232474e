package eval

import (
	"fmt"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

// E13Config parameterises the posterior-compression frontier ablation.
type E13Config struct {
	Seed       int64
	Sessions   int // marketplace sessions per cell; 0 means 400
	Population int // agents, a third of them cheaters; 0 means 18
	// Period is the gossip period every compressed cell shares — unlike
	// E11/E12 the schedule is fixed and the export policy is the sweep
	// axis; 0 means 4 (the finest non-trivial period of the E11 sweep,
	// where the posterior plane moves the most bytes and compression has
	// the most to win).
	Period int
	// Trials replicates every cell over seed-derived marketplaces, exactly
	// as E11/E12 do; 0 means 3.
	Trials int
	// Policies is the export-policy sweep, one gossiping row each; nil
	// means DefaultE13Policies. The dense reference row and the
	// single-engine baseline always run in addition — every ratio and gap
	// in the table is against those shared anchors.
	Policies []trust.ExportPolicy
	// Topology and Fanout shape the exchange fabric of every gossiping
	// cell; zero values mean full mesh.
	Topology gossip.Topology
	Fanout   int
	// Workers is the trial worker pool; 0 means DefaultWorkers().
	Workers int
	// EnginesPerCell bounds concurrent sub-engines per cell; pure
	// parallelism, never changes the table.
	EnginesPerCell int
}

// DefaultE13Policies is the sweep: the codec axis (columnar lossless, then
// lossy fixed point at 6 fractional bits — each must cost strictly fewer
// bytes than the last) and the selective-export budget axis (confidence
// thresholds at ε = 0.5 deferring subjects until ~2, ~4 and ~8 pending
// observations — each must cost strictly fewer bytes and can only widen the
// honest-loss gap, since deferred evidence arrives later). The dense
// reference row is implicit and always runs. Rows are labelled by the
// policy's spec spelling.
func DefaultE13Policies() []trust.ExportPolicy {
	return []trust.ExportPolicy{
		{Codec: trust.PosteriorColumnar},
		{QuantizeBits: 6},
		{Codec: trust.PosteriorColumnar, MinConfidence: 0.2, Epsilon: 0.5},
		{Codec: trust.PosteriorColumnar, MinConfidence: 0.7, Epsilon: 0.5},
		{Codec: trust.PosteriorColumnar, MinConfidence: 0.95, Epsilon: 0.5},
	}
}

func (c E13Config) withDefaults() E13Config {
	if c.Sessions <= 0 {
		c.Sessions = 400
	}
	if c.Population <= 0 {
		c.Population = 18
	}
	if c.Period <= 0 {
		c.Period = 4
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if len(c.Policies) == 0 {
		c.Policies = DefaultE13Policies()
	}
	return c
}

// E13CompressionFrontier sweeps the posterior gossip export policy over one
// fixed marketplace and gossip schedule: the same sharded cell E12 runs at
// the period where the posterior plane moves the most bytes, re-run once per
// ExportPolicy, so every accuracy number is directly attributable to what
// the wire withheld or coarsened. The dense row is the PR 5 wire and the
// shared reference for the byte ratios; the codec rows (columnar, lossy
// fixed point) must reproduce or approximate its outcomes at strictly fewer
// bytes — the lossless columnar row is bit-identical in outcome, pure
// representation; the selective rows (confidence thresholds) trade bytes
// against evidence latency, so their honest-loss gap to the single-engine
// baseline widens as the byte budget falls — deferred, never dropped, but
// deferral has a price, and the table plots exactly that frontier
// (test-enforced monotone along the budget axis, like E11/E12's gap
// discipline).
func E13CompressionFrontier(cfg E13Config) (*Table, error) {
	cfg = cfg.withDefaults()
	gc := gossip.Config{Period: cfg.Period, Topology: cfg.Topology, Fanout: cfg.Fanout}
	// Rows: the dense reference, the policy sweep, then the single-engine
	// baseline every gap is measured against. Every cell is a posterior
	// cell, so within a trial the export policy is the only varying factor.
	a := &ablation{seed: cfg.Seed, trials: cfg.Trials, workers: cfg.Workers}
	baseRow := len(cfg.Policies) + 1
	dense := ablationCell{Sessions: cfg.Sessions, Population: cfg.Population, Evidence: trust.EvidencePosterior,
		Gossip: gc, Shards: DefaultCellShards, Engines: cfg.EnginesPerCell}
	a.rows = append(a.rows, ablationRow{labels: []string{"dense (PR 5 wire)"}, cell: dense, base: baseRow})
	for _, p := range cfg.Policies {
		c := dense
		c.Export = p
		a.rows = append(a.rows, ablationRow{labels: []string{p.String()}, cell: c, base: baseRow})
	}
	single := dense
	single.Gossip, single.Shards = gossip.Config{}, 1
	a.rows = append(a.rows, ablationRow{labels: []string{"single engine"}, cell: single, base: baseRow})

	bytesPerSession := func(r int) float64 { return a.mean(r, bytesDelivered) / float64(cfg.Sessions) }
	title := cellCaveats{Shards: DefaultCellShards}.annotate(
		fmt.Sprintf("posterior compression frontier: export-policy sweep at gossip period %d over %s (gap vs single-engine baseline, prior matched to complaint evidence-free trust; selective rows defer evidence, never drop it)",
			cfg.Period, fabricShape(cfg.Topology, cfg.Fanout)))
	return a.table("E13", title, []string{"export policy"}, []string{"bytes/session", "vs dense"}, func(r int) []string {
		if r == baseRow {
			return []string{"-", "-"}
		}
		b, vsDense := bytesPerSession(r), "-"
		if b > 0 {
			vsDense = ratio(bytesPerSession(0) / b)
		}
		return []string{f1(b), vsDense}
	})
}
