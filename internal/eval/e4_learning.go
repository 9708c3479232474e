package eval

import (
	"fmt"
	"math/rand"

	"trustcoop/internal/stats"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/mui"
)

// E4Config parameterises the trust-learning experiment.
type E4Config struct {
	Seed       int64
	Population int   // 0 means 40
	Rounds     []int // interactions per peer pair stage; nil means {5, 20, 80, 320}
	Workers    int   // trial worker pool; 0 means DefaultWorkers()
}

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
	tbl := &Table{
		ID:    "E4",
		Title: "trust-model accuracy (MAE vs ground truth) as interactions accumulate",
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
	// stage, reporting one MAE per stage.
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
