package eval

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// claimSeeds are the seeds a claim is asserted at. A claim must hold on
// every one of them; a seed it fails on is a finding, never a reason to
// choose other seeds.
var claimSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// claim is one of the paper's claims stated as a predicate over an
// experiment's quick table: holds returns an error naming the first cell
// that contradicts it.
type claim struct {
	name  string
	id    string
	holds func(tbl *Table) error
}

// assert runs c's experiment at every claim seed and checks the claim on
// each table.
func (c claim) assert(t *testing.T) {
	t.Helper()
	for _, seed := range claimSeeds {
		tbl, err := Run(c.id, RunConfig{Seed: seed, Quick: true})
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.id, seed, err)
		}
		if err := c.holds(tbl); err != nil {
			t.Errorf("%s (%s) seed %d: %v", c.name, c.id, seed, err)
		}
	}
}

// TestE5MeanHopsBelowLog2N: P-Grid answers a query in fewer hops, on
// average, than log2 of its peer count, the O(log N) routing bound of the
// paper's reputation substrate.
func TestE5MeanHopsBelowLog2N(t *testing.T) {
	claim{name: "P-Grid mean hops < log2 N", id: "E5", holds: pgridHopsBelowLog2N}.assert(t)
}

// pgridHopsBelowLog2N checks every pgrid row of an E5 table: the mean hops
// in its value cell against log2 of the peer count in its x cell, which the
// cell must also print.
func pgridHopsBelowLog2N(tbl *Table) error {
	rows := 0
	for _, row := range tbl.Rows {
		if row[0] != "pgrid" {
			continue
		}
		rows++
		peers, err := strconv.Atoi(row[1])
		if err != nil {
			return fmt.Errorf("row %v: peers: %v", row, err)
		}
		var hops, printed float64
		if _, err := fmt.Sscanf(row[3], "%f (log2N=%f)", &hops, &printed); err != nil {
			return fmt.Errorf("row %v: value: %v", row, err)
		}
		bound := math.Log2(float64(peers))
		if math.Abs(printed-bound) > 0.05 {
			return fmt.Errorf("%d peers: printed log2N=%.1f, want %.1f", peers, printed, bound)
		}
		if hops >= bound {
			return fmt.Errorf("%d peers: mean hops %.2f, want below log2 N = %.2f", peers, hops, bound)
		}
	}
	if rows == 0 {
		return fmt.Errorf("no pgrid rows")
	}
	return nil
}
