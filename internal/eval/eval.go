package eval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"trustcoop/internal/trust"
)

// Runner regenerates one experiment.
type Runner func(rc RunConfig) (*Table, error)

// All returns the experiment registry: id → runner. RunConfig.Quick shrinks
// trial counts for smoke tests and benchmarks; RunConfig.Workers bounds the
// trial worker pool and RunConfig.EnginesPerCell the per-cell sub-engine
// pool (tables are identical for every worker and engine count).
// RunConfig.Gossip turns on cross-shard evidence gossip for the
// sharded-cell experiments (E2, E3, E6; topology/fanout for the E11–E13
// sweeps) — an information-structure change, reflected in their table
// titles.
func All() map[string]Runner {
	// withGossip parses RunConfig.Gossip and RunConfig.Evidence once for
	// the gossip-aware experiments into the cell spec they share; Run
	// additionally rejects malformed specs for every id, so a typo fails
	// fast even when only gossip-blind experiments run.
	withGossip := func(build func(spec CellSpec, rc RunConfig) (*Table, error)) Runner {
		return func(rc RunConfig) (*Table, error) {
			gc, err := rc.gossipCfg()
			if err != nil {
				return nil, err
			}
			kind, pol, err := rc.evidenceKind()
			if err != nil {
				return nil, err
			}
			return build(CellSpec{Workers: rc.workers(), EnginesPerCell: rc.EnginesPerCell, Gossip: gc, Evidence: kind, Export: pol}, rc)
		}
	}
	return map[string]Runner{
		"E1": func(rc RunConfig) (*Table, error) {
			cfg := E1Config{Seed: rc.Seed, Workers: rc.workers()}
			if rc.Quick {
				cfg.Trials = 30
				cfg.Sizes = []int{2, 8}
			}
			return E1SafeExistence(cfg)
		},
		"E2": withGossip(func(spec CellSpec, rc RunConfig) (*Table, error) {
			cfg := E2Config{Seed: rc.Seed, CellSpec: spec}
			if rc.Quick {
				cfg.Sessions = 60
				cfg.Population = 10
				cfg.CheaterPct = []float64{0, 0.4}
			}
			return E2CompletionWelfare(cfg)
		}),
		"E3": withGossip(func(spec CellSpec, rc RunConfig) (*Table, error) {
			cfg := E3Config{Seed: rc.Seed, CellSpec: spec}
			if rc.Quick {
				cfg.Sessions = 60
				cfg.Population = 10
				cfg.CheaterPct = []float64{0.4}
			}
			return E3LossExposure(cfg)
		}),
		"E4": func(rc RunConfig) (*Table, error) {
			cfg := E4Config{Seed: rc.Seed, Workers: rc.workers()}
			if rc.Quick {
				cfg.Population = 16
				cfg.Rounds = []int{5, 20}
			}
			return E4TrustLearning(cfg)
		},
		"E5": func(rc RunConfig) (*Table, error) {
			cfg := E5Config{Seed: rc.Seed, Workers: rc.workers()}
			if rc.Quick {
				cfg.SchedSizes = []int{8, 32}
				cfg.SchedReps = 3
				cfg.GridSizes = []int{64, 256}
				cfg.GridProbes = 50
			}
			return E5Complexity(cfg)
		},
		"E6": withGossip(func(spec CellSpec, rc RunConfig) (*Table, error) {
			cfg := E6Config{Seed: rc.Seed, CellSpec: spec}
			if rc.Quick {
				cfg.Sessions = 60
				cfg.Population = 9
				cfg.Alphas = []float64{0, 0.2}
			}
			return E6RiskAversion(cfg)
		}),
		"E7": func(rc RunConfig) (*Table, error) {
			cfg := E7Config{Seed: rc.Seed, Workers: rc.workers()}
			if rc.Quick {
				cfg.Trials = 40
				cfg.Sizes = []int{2, 16}
			}
			return E7MinimalStake(cfg)
		},
		"E8": func(rc RunConfig) (*Table, error) {
			cfg := E8Config{Seed: rc.Seed, Workers: rc.workers()}
			if rc.Quick {
				cfg.Peers = 24
				cfg.GridPeers = 32
				cfg.Interactions = 600
				cfg.LiarPct = []float64{0, 0.3}
				cfg.Replicas = []int{1, 3}
			}
			return E8AdversarialWitnesses(cfg)
		},
		"E9": func(rc RunConfig) (*Table, error) {
			cfg := E9Config{Seed: rc.Seed, Workers: rc.workers()}
			if rc.Quick {
				cfg.Trials = 30
				cfg.Items = 8
			}
			return E9Ablation(cfg)
		},
		"E10": func(rc RunConfig) (*Table, error) {
			cfg := E10Config{Seed: rc.Seed, Workers: rc.workers(), Backends: rc.repStores()}
			if rc.Quick {
				cfg.Sessions = 80
				cfg.Population = 9
				cfg.BatchSize = 8
				cfg.GridPeers = 32
			}
			return E10BackendAblation(cfg)
		},
		"E11": withGossip(func(spec CellSpec, rc RunConfig) (*Table, error) {
			cfg := E11Config{Seed: rc.Seed, Workers: spec.Workers, EnginesPerCell: spec.EnginesPerCell,
				Topology: spec.Gossip.Topology, Fanout: spec.Gossip.Fanout, ExchangeLatency: rc.ExchangeLatency}
			if rc.Quick {
				cfg.Sessions = 80
				cfg.Population = 9
				cfg.Periods = []int{0, 8, 2}
			}
			return E11GossipPeriod(cfg)
		}),
		"E12": withGossip(func(spec CellSpec, rc RunConfig) (*Table, error) {
			cfg := E12Config{Seed: rc.Seed, Workers: spec.Workers, EnginesPerCell: spec.EnginesPerCell,
				Topology: spec.Gossip.Topology, Fanout: spec.Gossip.Fanout, Export: spec.Export, ExchangeLatency: rc.ExchangeLatency}
			if spec.Evidence != "" {
				cfg.Kinds = []trust.EvidenceKind{spec.Evidence}
			}
			if rc.Quick {
				cfg.Sessions = 80
				cfg.Population = 9
				cfg.Periods = []int{0, 8, 2}
				cfg.Trials = 2
			}
			return E12EvidencePlane(cfg)
		}),
		"E13": withGossip(func(spec CellSpec, rc RunConfig) (*Table, error) {
			cfg := E13Config{Seed: rc.Seed, Workers: spec.Workers, EnginesPerCell: spec.EnginesPerCell,
				Topology: spec.Gossip.Topology, Fanout: spec.Gossip.Fanout, Period: spec.Gossip.Period}
			if kind := spec.Evidence; kind != "" && kind != trust.EvidencePosterior {
				return nil, fmt.Errorf("eval: E13 sweeps posterior export policies; -evidence %s does not apply", kind)
			}
			if spec.Export != (trust.ExportPolicy{}) {
				// A single explicit policy replaces the sweep: run just that
				// row (plus the shared dense reference and baseline).
				cfg.Policies = []trust.ExportPolicy{spec.Export}
			}
			if rc.Quick {
				cfg.Sessions = 80
				cfg.Population = 9
				cfg.Trials = 2
			}
			return E13CompressionFrontier(cfg)
		}),
	}
}

// IDs lists the experiment ids in numeric order (E1, E2, …, E13).
func IDs() []string {
	m := All()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ni, _ := strconv.Atoi(strings.TrimPrefix(ids[i], "E"))
		nj, _ := strconv.Atoi(strings.TrimPrefix(ids[j], "E"))
		if ni != nj {
			return ni < nj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Run executes one experiment by id. Malformed RunConfig.Gossip and
// RunConfig.Evidence specs are rejected for every id — including the
// gossip-blind experiments — so a typo'd flag fails fast instead of being
// silently ignored.
func Run(id string, rc RunConfig) (*Table, error) {
	r, ok := All()[id]
	if !ok {
		return nil, fmt.Errorf("eval: unknown experiment %q (have %v)", id, IDs())
	}
	if _, err := rc.gossipCfg(); err != nil {
		return nil, err
	}
	if _, _, err := rc.evidenceKind(); err != nil {
		return nil, err
	}
	return r(rc)
}
