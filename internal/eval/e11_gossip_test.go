package eval

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/market"
	"trustcoop/internal/testutil"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

func e11Quick() E11Config {
	return E11Config{Seed: 17, Sessions: 80, Population: 9, Periods: []int{0, 8, 2}, Trials: 2}
}

// TestE11PeriodInfinityIsPR3ShardedOutput is the backward-compatibility
// anchor of the tentpole: an E11 cell at period ∞ must be byte-identical to
// what the pre-gossip sharded cell runner (PR 3's RunCell: same
// decomposition, same backend, no Gossip config at all) produces — gossip
// off is not a new code path, it IS the old one.
func TestE11PeriodInfinityIsPR3ShardedOutput(t *testing.T) {
	cfg := e11Quick()
	// The E11 ∞ cell: a complaint cell sharded with the zero gossip config.
	e11 := testutil.Variant{Name: "E11 period=∞ cell", Run: func() (string, error) {
		cell, err := runAblationCell(ablationCell{Seed: cfg.Seed, Sessions: cfg.Sessions, Population: cfg.Population,
			Evidence: trust.EvidenceComplaints, Shards: DefaultCellShards})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", cell.res), nil
	}}
	// The PR 3 shape: the same marketplace handed to RunCell exactly as the
	// pre-gossip experiments built it — no Gossip field at all.
	pr3 := testutil.Variant{Name: "PR 3 RunCell (no gossip config)", Run: func() (string, error) {
		cheaters := cfg.Population / 3
		pop := agent.PopConfig{
			Honest:      cfg.Population - cheaters,
			Opportunist: cheaters / 2,
			Backstabber: cheaters - cheaters/2,
			Stake:       0,
		}
		agents, err := agent.NewPopulation(pop, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return "", err
		}
		res, _, err := RunCell(market.Config{
			Seed:     DeriveSeed(cfg.Seed, 1),
			Sessions: cfg.Sessions,
			Agents:   agents,
			Strategy: market.StrategyTrustAware,
			RepStore: "sharded",
		}, DefaultCellShards, 0, nil)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", res), nil
	}}
	testutil.ByteIdentical(t, e11, pr3)
}

// TestE11QuickTableShape sanity-checks the rendered ablation: one row per
// period plus the single-engine baseline, ∞ spelled out, gossip traffic only
// on gossiping rows.
func TestE11QuickTableShape(t *testing.T) {
	tbl, err := E11GossipPeriod(e11Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 periods + baseline", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "∞" || tbl.Rows[3][0] != "single engine" {
		t.Errorf("row labels: %v / %v", tbl.Rows[0], tbl.Rows[3])
	}
	gossipedIdx, gapIdx := -1, -1
	for i, c := range tbl.Cols {
		switch c {
		case "evidence gossiped":
			gossipedIdx = i
		case "loss gap vs 1 engine":
			gapIdx = i
		}
	}
	if gossipedIdx < 0 || gapIdx < 0 {
		t.Fatalf("missing columns in %v", tbl.Cols)
	}
	if tbl.Rows[0][gossipedIdx] != "-" || tbl.Rows[3][gossipedIdx] != "-" {
		t.Errorf("non-gossiping rows must not report traffic: %v", tbl.Rows)
	}
	for _, ri := range []int{1, 2} {
		if tbl.Rows[ri][gossipedIdx] == "-" {
			t.Errorf("gossiping row %d reports no traffic: %v", ri, tbl.Rows[ri])
		}
	}
	if tbl.Rows[3][gapIdx] != "-" {
		t.Errorf("baseline row must not report a gap to itself: %v", tbl.Rows[3])
	}
	if !strings.Contains(tbl.Title, "gossip") || !strings.Contains(tbl.Title, "sharded ×4") {
		t.Errorf("title misses the information-structure caveats: %q", tbl.Title)
	}
}

// TestE11GapShrinksMonotonically enforces the headline claim of the
// ablation at the committed reference configuration (full size, seed 42,
// the table recorded in docs/PERF.md): walking the period down the sweep
// {∞, 64, 16, 4, 1} must strictly shrink the honest-loss gap to the
// single-engine baseline — more gossip, closer to the shared-evidence
// information structure. This is the experiment's reason to exist, so a
// regression here (from a fabric change, a schedule change, a seed-plumbing
// change) must fail loudly.
func TestE11GapShrinksMonotonically(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E11 (reference configuration)")
	}
	tbl, err := E11GossipPeriod(E11Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gapIdx := -1
	for i, c := range tbl.Cols {
		if c == "loss gap vs 1 engine" {
			gapIdx = i
		}
	}
	if gapIdx < 0 {
		t.Fatalf("no gap column in %v", tbl.Cols)
	}
	prev := -1.0
	for _, row := range tbl.Rows {
		if row[gapIdx] == "-" {
			continue
		}
		gap, err := strconv.ParseFloat(row[gapIdx], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if prev >= 0 && gap >= prev {
			t.Errorf("gap not strictly shrinking at period %s: %.1f after %.1f\n%s", row[0], gap, prev, tbl)
		}
		prev = gap
	}
}

// TestE11TopologiesBothConverge: mesh and ring run the same marketplace and
// both shrink the gap at period 1 versus isolated shards; the ring pays in
// propagation delay, not in lost evidence. The fabric shape — fanout cap
// included, since partial propagation changes the information structure —
// must be visible in the title.
func TestE11TopologiesBothConverge(t *testing.T) {
	for _, tc := range []struct {
		topo    gossip.Topology
		fanout  int
		inTitle string
	}{
		{gossip.TopologyMesh, 0, "over mesh"},
		{gossip.TopologyRing, 0, "over ring"},
		{gossip.TopologyMesh, 1, "over mesh fanout 1"},
	} {
		cfg := e11Quick()
		cfg.Topology = tc.topo
		cfg.Fanout = tc.fanout
		cfg.Periods = []int{0, 2}
		tbl, err := E11GossipPeriod(cfg)
		if err != nil {
			t.Fatalf("%s fanout %d: %v", tc.topo, tc.fanout, err)
		}
		if len(tbl.Rows) != 3 {
			t.Fatalf("%s: rows = %d", tc.topo, len(tbl.Rows))
		}
		if !strings.Contains(tbl.Title, tc.inTitle) {
			t.Errorf("title %q misses the fabric shape %q", tbl.Title, tc.inTitle)
		}
	}
}

// TestRunRejectsMalformedGossipSpecEverywhere: a typo'd -gossip flag must
// fail fast on every experiment — including the gossip-blind ones — never
// be silently ignored.
func TestRunRejectsMalformedGossipSpecEverywhere(t *testing.T) {
	for _, id := range []string{"E1", "E5", "E11"} {
		if _, err := Run(id, RunConfig{Seed: 1, Quick: true, Gossip: "4:torus"}); err == nil {
			t.Errorf("%s: malformed gossip spec accepted", id)
		}
	}
}

// TestExchangeLatencyCellReadsPercentiles feeds the opt-in latency column a
// known spread, 1…1000 µs split over two trials, and checks that the cell
// reports the median, 95th and 99th percentiles, which are distinct, and
// not the minimum three times.
func TestExchangeLatencyCellReadsPercentiles(t *testing.T) {
	a := &ablation{trials: 2, rows: make([]ablationRow, 1), results: make([]ablationResult, 2)}
	for us := 1; us <= 1000; us++ {
		a.results[us%2].exch.Add(float64(us))
	}
	cell := a.exchangeLatency(0)
	parts := strings.Split(cell, "/")
	if len(parts) != 3 {
		t.Fatalf("cell %q, want p50/p95/p99", cell)
	}
	var p [3]float64
	for i, s := range parts {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		p[i] = v
	}
	if !(p[0] < p[1] && p[1] < p[2]) {
		t.Fatalf("cell %q: want p50 < p95 < p99", cell)
	}
	// The distribution's log buckets are a few percent wide.
	for i, want := range []float64{500, 950, 990} {
		if p[i] < 0.9*want || p[i] > 1.1*want {
			t.Errorf("cell %q: percentile %d reads %v, want ≈ %v", cell, i, p[i], want)
		}
	}
}
