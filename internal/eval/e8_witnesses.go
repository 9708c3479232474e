package eval

import (
	"fmt"
	"math/rand"

	"trustcoop/internal/pgrid"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// E8Config parameterises the adversarial-witness experiment.
type E8Config struct {
	Seed         int64
	Peers        int       // population size, a sixth of them cheaters; 0 means 60
	GridPeers    int       // storage peers; 0 means 128
	Interactions int       // 0 means 60 × Peers
	LiarPct      []float64 // lying-reporter fractions; nil means {0, 0.15, 0.3, 0.45}
	Replicas     []int     // replica queries per count; nil means {1, 3, 7}
	Workers      int       // trial worker pool; 0 means DefaultWorkers()
}

func (c E8Config) withDefaults() E8Config {
	if c.Peers <= 0 {
		c.Peers = 60
	}
	if c.GridPeers <= 0 {
		c.GridPeers = 128
	}
	if c.Interactions <= 0 {
		c.Interactions = 60 * c.Peers
	}
	if len(c.LiarPct) == 0 {
		c.LiarPct = []float64{0, 0.15, 0.3, 0.45}
	}
	if len(c.Replicas) == 0 {
		c.Replicas = []int{1, 3, 7}
	}
	return c
}

// E8AdversarialWitnesses reproduces the robustness question of [2]: the
// complaint-based trust model running over the decentralised P-Grid store
// while (a) a fraction of *reporters* lie (file complaints about honest
// peers instead of the cheaters who cheated them) and (b) the same fraction
// of *storage* peers hide the data they hold. Reported: precision and
// recall of cheater detection per liar fraction and replica-vote count.
// Each (liar fraction, replicas) cell builds its own grid and population
// from parameters-derived seeds, so the cells shard over the worker pool
// with identical tables for every worker count.
func E8AdversarialWitnesses(cfg E8Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID:    "E8",
		Title: "cheater detection under lying reporters and Byzantine storage (pgrid)",
		Cols:  []string{"liars", "replicas", "precision", "recall", "F1"},
	}
	type cell struct {
		liarPct  float64
		replicas int
	}
	var cells []cell
	for _, liarPct := range cfg.LiarPct {
		for _, replicas := range cfg.Replicas {
			cells = append(cells, cell{liarPct, replicas})
		}
	}
	type cellResult struct{ precision, recall float64 }
	results, err := RunTrials(cfg.Workers, len(cells), func(ci int) (cellResult, error) {
		precision, recall, err := runE8Cell(cfg, cells[ci].liarPct, cells[ci].replicas)
		return cellResult{precision, recall}, err
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cells {
		precision, recall := results[ci].precision, results[ci].recall
		f1Score := 0.0
		if precision+recall > 0 {
			f1Score = 2 * precision * recall / (precision + recall)
		}
		tbl.AddRow(pct(c.liarPct), itoa(c.replicas), f3(precision), f3(recall), f3(f1Score))
	}
	return tbl, nil
}

func runE8Cell(cfg E8Config, liarPct float64, replicas int) (precision, recall float64, err error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(liarPct*1000) + int64(replicas)))

	// The first sixth of the population cheats.
	cheaters := cfg.Peers / 6
	population := make([]trust.PeerID, cfg.Peers)
	isCheater := make(map[trust.PeerID]bool, cheaters)
	isLiar := make(map[trust.PeerID]bool)
	for i := range population {
		population[i] = trust.PeerID(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < cheaters; i++ {
		isCheater[population[i]] = true
	}
	honest := population[cheaters:]
	for _, idx := range rng.Perm(len(honest))[:int(liarPct*float64(len(honest)))] {
		isLiar[honest[idx]] = true
	}

	// The grid draws from its own seed, so filing as the stream is drawn
	// leaves the population stream untouched.
	grid, err := pgrid.New(pgrid.Config{Peers: cfg.GridPeers, Seed: cfg.Seed + int64(replicas)})
	if err != nil {
		return 0, 0, err
	}
	grid.MarkMalicious(liarPct)
	store := &pgrid.ComplaintStore{Grid: grid, Replicas: replicas}
	for k := 0; k < cfg.Interactions; k++ {
		a := population[rng.Intn(len(population))]
		b := population[rng.Intn(len(population))]
		if a == b || !isCheater[b] {
			continue
		}
		c := complaints.Complaint{From: a, About: b}
		if isLiar[a] {
			// Liars shield cheaters and frame an honest peer instead.
			c.About = honest[rng.Intn(len(honest))]
		}
		if err := store.File(c); err != nil {
			return 0, 0, err
		}
	}

	assessor := complaints.Assessor{Store: store, Population: population}
	var tp, fp, fn int
	for _, p := range population {
		ok, err := assessor.Trustworthy(p)
		if err != nil {
			return 0, 0, err
		}
		flagged := !ok
		switch {
		case flagged && isCheater[p]:
			tp++
		case flagged && !isCheater[p]:
			fp++
		case !flagged && isCheater[p]:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall, nil
}
