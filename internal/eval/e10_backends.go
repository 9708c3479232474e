package eval

import (
	"fmt"

	"trustcoop/internal/agent"
	"trustcoop/internal/market"
	"trustcoop/internal/trust/complaints"

	// Registers the "pgrid" reputation backend.
	_ "trustcoop/internal/pgrid"
)

// E10Config parameterises the reputation-backend ablation.
type E10Config struct {
	Seed       int64
	Sessions   int      // marketplace sessions per backend; 0 means 300
	Population int      // agents, a third of them cheaters; 0 means 18
	Backends   []string // complaint-store specs; nil means DefaultE10Backends
	BatchSize  int      // async flush batch; 0 means 16
	GridPeers  int      // pgrid storage peers; 0 means 64
	Workers    int      // trial worker pool; 0 means DefaultWorkers()
}

// DefaultE10Backends is the backend portfolio the ablation compares: the
// three exact-evidence stores (centralised single-mutex, lock-striped,
// decentralised P-Grid) and the write-behind pipeline in both stackings.
func DefaultE10Backends() []string {
	return []string{"memory", "sharded", "async", "async:sharded", "pgrid"}
}

func (c E10Config) withDefaults() E10Config {
	if c.Sessions <= 0 {
		c.Sessions = 300
	}
	if c.Population <= 0 {
		c.Population = 18
	}
	if len(c.Backends) == 0 {
		c.Backends = DefaultE10Backends()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	return c
}

// e10Cell is one backend's measured outcome.
type e10Cell struct {
	res        market.Result
	complaints int
	f1         float64
	stats      complaints.AsyncStats // zero for read-through backends
	isAsync    bool
}

// E10BackendAblation runs the complaint-based trust model over every
// registered reputation backend and compares cooperation outcomes: the same
// marketplace (same seed, same population, same pairing) where only the
// complaint data plane changes. The exact stores (memory, sharded, pgrid
// with honest replicas) hold identical counts, so their rows must agree —
// which validates the backends against each other. The async rows expose the
// staleness-vs-throughput tradeoff: planning reads lag filing by up to a
// batch, the same effect engine concurrency has on learned trust (see the
// ROADMAP caveat), measured here as the stale-read fraction next to its
// cooperation cost. Every cell derives its seeds from (Seed, cell index), so
// tables are byte-identical for every worker count.
func E10BackendAblation(cfg E10Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID: "E10",
		Title: fmt.Sprintf("reputation backend ablation: trust-aware market over pluggable complaint stores (async batch=%d)",
			cfg.BatchSize),
		Cols: []string{"backend", "trade rate", "completion", "honest loss", "cheater F1", "complaints", "stale reads"},
	}
	results, err := RunTrials(cfg.Workers, len(cfg.Backends), func(ci int) (e10Cell, error) {
		return runE10Cell(cfg, ci)
	})
	if err != nil {
		return nil, err
	}
	for ci, backend := range cfg.Backends {
		cell := results[ci]
		stale := "-"
		if cell.isAsync {
			frac := 0.0
			if cell.stats.Reads > 0 {
				frac = float64(cell.stats.StaleReads) / float64(cell.stats.Reads)
			}
			stale = pct(frac)
		}
		tbl.AddRow(
			backend,
			pct(cell.res.TradeRate()),
			pct(cell.res.CompletionRate()),
			f1(cell.res.HonestVictimLoss.Float64()),
			f3(cell.f1),
			itoa(cell.complaints),
			stale,
		)
	}
	return tbl, nil
}

func runE10Cell(cfg E10Config, ci int) (e10Cell, error) {
	// The population (and thus the cheater ground truth) is identical across
	// backends, and so is the engine seed: every cell runs the same
	// marketplace, isolating the data plane as the only varying factor —
	// that is the ablation.
	mc, err := ablationMarket(cfg.Seed, cfg.Sessions, cfg.Population)
	if err != nil {
		return e10Cell{}, err
	}
	backend := cfg.Backends[ci]
	mc.RepStore = backend
	mc.RepStoreConfig = complaints.BackendConfig{
		BatchSize: cfg.BatchSize,
		GridPeers: cfg.GridPeers,
		Seed:      DeriveSeed(cfg.Seed, 2),
	}
	eng, err := market.NewEngine(mc)
	if err != nil {
		return e10Cell{}, fmt.Errorf("%s: %w", backend, err)
	}
	res, err := eng.Run()
	if err != nil {
		return e10Cell{}, fmt.Errorf("%s: %w", backend, err)
	}

	cell := e10Cell{res: res}
	store := eng.RepStore()
	if as, ok := store.(*complaints.AsyncStore); ok {
		cell.isAsync = true
		cell.stats = as.Stats()
	}

	// Post-run detection quality over the backend's final counts (the engine
	// drained any write-behind backlog at the end of Run).
	assessor := complaints.Assessor{Store: store, Population: agent.IDs(mc.Agents)}
	var tp, fp, fn int
	for _, a := range mc.Agents {
		ok, err := assessor.Trustworthy(a.ID)
		if err != nil {
			return e10Cell{}, fmt.Errorf("%s: assess %s: %w", backend, a.ID, err)
		}
		n, err := store.Received(a.ID)
		if err != nil {
			return e10Cell{}, err
		}
		cell.complaints += n
		flagged := !ok
		cheater := a.Behavior.Name() != "honest"
		switch {
		case flagged && cheater:
			tp++
		case flagged && !cheater:
			fp++
		case !flagged && cheater:
			fn++
		}
	}
	var precision, recall float64
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		cell.f1 = 2 * precision * recall / (precision + recall)
	}
	return cell, nil
}
