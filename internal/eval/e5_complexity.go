package eval

import (
	"fmt"
	"math"

	"trustcoop/internal/pgrid"
)

// E5Config parameterises the complexity measurements.
type E5Config struct {
	Seed       int64
	GridSizes  []int // peer counts; nil means {64, 256, 1024, 4096}
	GridProbes int   // queries per grid; 0 means 400
	Workers    int   // worker pool for the grid cells; 0 means DefaultWorkers()
}

func (c E5Config) withDefaults() E5Config {
	if len(c.GridSizes) == 0 {
		c.GridSizes = []int{64, 256, 1024, 4096}
	}
	if c.GridProbes <= 0 {
		c.GridProbes = 400
	}
	return c
}

// E5Complexity checks the paper's cost claim for its reputation substrate:
// the P-Grid of [2] answers reputation queries in O(log N) hops. Each row
// reports a grid's mean hops per query beside log2 N, the bound it must stay
// under. Hops are counted, not timed, so the table is a pure function of the
// seed and the grid cells shard across the worker pool. The scheduler's cost
// (a sort plus a linear walk) is measured by BenchmarkScheduleSafe and
// BenchmarkScheduleTrustAware.
func E5Complexity(cfg E5Config) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{
		ID:    "E5",
		Title: "complexity: P-Grid mean hops vs peers (≤ log2 N)",
		Cols:  []string{"series", "x", "measure", "value"},
	}
	gridRows, err := RunTrials(cfg.Workers, len(cfg.GridSizes), func(gi int) (string, error) {
		peers := cfg.GridSizes[gi]
		g, err := pgrid.New(pgrid.Config{Peers: peers, Seed: cfg.Seed})
		if err != nil {
			return "", err
		}
		key := g.KeyFor("subject")
		if err := g.Insert(key, "record"); err != nil {
			return "", err
		}
		for i := 0; i < cfg.GridProbes; i++ {
			if _, _, err := g.Query(key); err != nil {
				return "", err
			}
		}
		_, mean := g.RouteStats()
		return fmt.Sprintf("%.2f (log2N=%.1f)", mean, math.Log2(float64(peers))), nil
	})
	if err != nil {
		return nil, err
	}
	for gi, peers := range cfg.GridSizes {
		tbl.AddRow("pgrid", itoa(peers), "mean hops", gridRows[gi])
	}
	return tbl, nil
}
