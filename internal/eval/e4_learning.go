package eval

import (
	"fmt"
	"math/rand"

	"trustcoop/internal/stats"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/gossip"
	"trustcoop/internal/trust/mui"
)

// E4Config parameterises the trust-learning experiment.
type E4Config struct {
	Seed       int64
	Population int   // 0 means 40
	Rounds     []int // interactions per peer pair stage; nil means {5, 20, 80, 320}
	Workers    int   // trial worker pool; 0 means DefaultWorkers()
	// CellShards splits every model's replay across sub-models that learn
	// from round-robin-partitioned interactions and exchange evidence
	// deltas over a gossip fabric — the evidence plane's proof that the
	// *estimator* models shard exactly like the complaint store: the Beta
	// and witness models gossip posterior deltas, the complaint model
	// complaint deltas, every e4GossipPeriod interactions per shard. <= 1
	// (the default) replays unsharded, the historical table.
	CellShards int
}

// e4GossipPeriod is the per-shard interaction count between exchanges when
// E4 replays sharded. Every stage ends with an exchange + drain before
// measurement, so the decay-free models reproduce the unsharded table
// exactly (trust.Beta's posterior is a plain sum there); only beta+decay
// drifts within float rounding of the windowed apply order.
const e4GossipPeriod = 32

func (c E4Config) withDefaults() E4Config {
	if c.Population <= 0 {
		c.Population = 40
	}
	if len(c.Rounds) == 0 {
		c.Rounds = []int{5, 20, 80, 320}
	}
	return c
}

// e4Interaction is one observed encounter of the shared schedule.
type e4Interaction struct {
	obs, sub trust.PeerID
	coop     bool
}

// E4TrustLearning compares the trust models the paper delegates to — the
// Bayesian direct-experience estimator, the Mui et al. witness model [3]
// and the Aberer–Despotovic complaint model [2] — on how quickly their
// predictions approach the agents' true honesty as evidence accumulates.
// The metric is the mean absolute error between the predicted cooperation
// probability and the agent's ground-truth honesty, over all (observer,
// subject) pairs with any evidence.
//
// The interaction schedule is drawn once from the seed; each model then
// replays it independently on the shard runner (the models share no state,
// so the replays parallelise cleanly and the result is identical for every
// worker count).
func E4TrustLearning(cfg E4Config) (*Table, error) {
	cfg = cfg.withDefaults()
	title := "trust-model accuracy (MAE vs ground truth) as interactions accumulate"
	if cfg.CellShards > 1 {
		// Mixed evidence kinds (posterior for the estimator models,
		// complaints for the complaint model), so the caveat is spelled
		// out here instead of through cellCaveats.
		title = fmt.Sprintf("%s (models sharded ×%d: evidence gossiped every %d interactions per shard, measured at shard 0)",
			title, cfg.CellShards, e4GossipPeriod)
	}
	tbl := &Table{
		ID:    "E4",
		Title: title,
		Cols:  []string{"interactions", "beta", "beta+decay", "mui", "complaints"},
	}

	n := cfg.Population
	ids := make([]trust.PeerID, n)
	honesty := make(map[trust.PeerID]float64, n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range ids {
		ids[i] = trust.PeerID(fmt.Sprintf("p%d", i))
		// Bimodal population: 70% reliable (0.85–1.0), 30% cheaters (0–0.3).
		if i%10 < 7 {
			honesty[ids[i]] = 0.85 + 0.15*rng.Float64()
		} else {
			honesty[ids[i]] = 0.3 * rng.Float64()
		}
	}

	// One shared schedule: stages[k] holds the interactions that arrive
	// between stage k−1 and stage k.
	stages := make([][]e4Interaction, len(cfg.Rounds))
	interactions := 0
	for si, target := range cfg.Rounds {
		for ; interactions < target*n; interactions++ {
			obs := ids[rng.Intn(n)]
			sub := ids[rng.Intn(n)]
			if obs == sub {
				continue
			}
			coop := rng.Float64() < honesty[sub]
			stages[si] = append(stages[si], e4Interaction{obs: obs, sub: sub, coop: coop})
		}
	}

	maeOf := func(est func(obs, sub trust.PeerID) (float64, bool)) (float64, error) {
		var pred, truth []float64
		for _, obs := range ids {
			for _, sub := range ids {
				if obs == sub {
					continue
				}
				if p, ok := est(obs, sub); ok {
					pred = append(pred, p)
					truth = append(truth, honesty[sub])
				}
			}
		}
		return stats.MAE(pred, truth)
	}

	// Each model owns its private state and replays the schedule stage by
	// stage, reporting one MAE per stage. With CellShards > 1 the replay
	// instead runs through buildSharded: per-shard sub-models over a gossip
	// fabric of the model's evidence kind.
	type model struct {
		name   string
		replay func() ([]float64, error)
	}
	betaReplay := func(decay float64) func() ([]float64, error) {
		return func() ([]float64, error) {
			est := make(map[trust.PeerID]*trust.Beta, n)
			for _, id := range ids {
				est[id] = trust.NewBeta(trust.BetaConfig{Decay: decay})
			}
			var maes []float64
			for _, stage := range stages {
				for _, ia := range stage {
					est[ia.obs].Record(ia.sub, trust.Outcome{Cooperated: ia.coop})
				}
				m, err := maeOf(func(obs, sub trust.PeerID) (float64, bool) {
					e := est[obs].Estimate(sub)
					return e.P, e.Samples > 0
				})
				if err != nil {
					return nil, err
				}
				maes = append(maes, m)
			}
			return maes, nil
		}
	}
	// shardedReplay partitions the schedule round-robin across a gossiping
	// fabric built by mk (which attaches one sub-model per node and returns
	// the record and shard-0 estimate hooks), exchanging every GossipPeriod
	// interactions per shard and draining at stage ends before measurement.
	shardedReplay := func(mk func(f *gossip.Fabric) (func(k int, ia e4Interaction) error, func(obs, sub trust.PeerID) (float64, bool), error)) func() ([]float64, error) {
		return func() ([]float64, error) {
			fab, err := gossip.NewFabric(gossip.Config{Period: e4GossipPeriod}, DeriveSeed(cfg.Seed, 99), cfg.CellShards)
			if err != nil {
				return nil, err
			}
			record, est, err := mk(fab)
			if err != nil {
				return nil, err
			}
			step := 0
			var maes []float64
			for _, stage := range stages {
				for _, ia := range stage {
					if err := record(step%cfg.CellShards, ia); err != nil {
						return nil, err
					}
					step++
					if step%(cfg.CellShards*e4GossipPeriod) == 0 {
						if err := fab.Exchange(); err != nil {
							return nil, err
						}
					}
				}
				// Stage boundary: ship and drain, then measure from shard 0.
				if err := fab.Exchange(); err != nil {
					return nil, err
				}
				if err := fab.Drain(); err != nil {
					return nil, err
				}
				m, err := maeOf(est)
				if err != nil {
					return nil, err
				}
				maes = append(maes, m)
			}
			return maes, nil
		}
	}
	betaSharded := func(decay float64) func() ([]float64, error) {
		return shardedReplay(func(f *gossip.Fabric) (func(int, e4Interaction) error, func(obs, sub trust.PeerID) (float64, bool), error) {
			books := make([]*gossip.Book, f.Shards())
			for k := range books {
				books[k] = f.Node(k).AttachBook(trust.BetaConfig{Decay: decay})
			}
			record := func(k int, ia e4Interaction) error {
				books[k].Estimator(ia.obs).Record(ia.sub, trust.Outcome{Cooperated: ia.coop})
				return nil
			}
			est := func(obs, sub trust.PeerID) (float64, bool) {
				e := books[0].Beta(obs).Estimate(sub)
				return e.P, e.Samples > 0
			}
			return record, est, nil
		})
	}
	muiSharded := func() ([]float64, error) {
		return shardedReplay(func(f *gossip.Fabric) (func(int, e4Interaction) error, func(obs, sub trust.PeerID) (float64, bool), error) {
			nets := make([]*mui.Network, f.Shards())
			for k := range nets {
				nets[k] = mui.NewNetwork(mui.Config{MaxWitnesses: 24})
				f.Node(k).AttachCarrier(nets[k])
			}
			record := func(k int, ia e4Interaction) error {
				nets[k].Record(ia.obs, ia.sub, trust.Outcome{Cooperated: ia.coop})
				f.Node(k).NoteRecorded(1)
				return nil
			}
			est := func(obs, sub trust.PeerID) (float64, bool) {
				return nets[0].Estimate(obs, sub).P, true
			}
			return record, est, nil
		})()
	}
	complaintsSharded := func() ([]float64, error) {
		return shardedReplay(func(f *gossip.Fabric) (func(int, e4Interaction) error, func(obs, sub trust.PeerID) (float64, bool), error) {
			for k := 0; k < f.Shards(); k++ {
				f.Node(k).Attach(complaints.NewMemoryStore())
			}
			assessor := complaints.Assessor{Store: f.Node(0), Population: ids}
			record := func(k int, ia e4Interaction) error {
				if ia.coop {
					return nil
				}
				return f.Node(k).File(complaints.Complaint{From: ia.obs, About: ia.sub})
			}
			est := func(obs, sub trust.PeerID) (float64, bool) {
				p, err := assessor.Probability(sub)
				if err != nil {
					return 0, false
				}
				return p, true
			}
			return record, est, nil
		})()
	}
	models := []model{
		{"beta", betaReplay(0)},
		{"beta+decay", betaReplay(0.98)},
		{"mui", func() ([]float64, error) {
			net := mui.NewNetwork(mui.Config{MaxWitnesses: 24})
			var maes []float64
			for _, stage := range stages {
				for _, ia := range stage {
					net.Record(ia.obs, ia.sub, trust.Outcome{Cooperated: ia.coop})
				}
				m, err := maeOf(func(obs, sub trust.PeerID) (float64, bool) {
					e := net.Estimate(obs, sub)
					return e.P, true // witnesses make estimates available everywhere
				})
				if err != nil {
					return nil, err
				}
				maes = append(maes, m)
			}
			return maes, nil
		}},
		{"complaints", func() ([]float64, error) {
			store := complaints.NewMemoryStore()
			assessor := complaints.Assessor{Store: store, Population: ids}
			var maes []float64
			for _, stage := range stages {
				for _, ia := range stage {
					if !ia.coop {
						if err := store.File(complaints.Complaint{From: ia.obs, About: ia.sub}); err != nil {
							return nil, err
						}
					}
				}
				m, err := maeOf(func(obs, sub trust.PeerID) (float64, bool) {
					p, err := assessor.Probability(sub)
					if err != nil {
						return 0, false
					}
					return p, true
				})
				if err != nil {
					return nil, err
				}
				maes = append(maes, m)
			}
			return maes, nil
		}},
	}
	if cfg.CellShards > 1 {
		models = []model{
			{"beta", betaSharded(0)},
			{"beta+decay", betaSharded(0.98)},
			{"mui", muiSharded},
			{"complaints", complaintsSharded},
		}
	}

	columns, err := RunTrials(cfg.Workers, len(models), func(mi int) ([]float64, error) {
		return models[mi].replay()
	})
	if err != nil {
		return nil, err
	}
	for si, target := range cfg.Rounds {
		tbl.AddRow(itoa(target),
			f3(columns[0][si]), f3(columns[1][si]), f3(columns[2][si]), f3(columns[3][si]))
	}
	return tbl, nil
}
