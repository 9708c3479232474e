package eval

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"trustcoop/internal/market"
	"trustcoop/internal/testutil"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

func e12Quick() E12Config {
	return E12Config{Seed: 17, Sessions: 80, Population: 9, Periods: []int{0, 8, 2}, Trials: 2}
}

// TestE12ComplaintRowsMatchE11 is the refactor's backward-compatibility
// anchor: the generalized evidence plane must leave the complaint path
// untouched, so E12's complaint rows — same seed, same periods, same trial
// replication — are E11's rows byte for byte (modulo the added evidence
// column).
func TestE12ComplaintRowsMatchE11(t *testing.T) {
	e11cfg := e11Quick()
	e12cfg := e12Quick()
	e11, err := E11GossipPeriod(e11cfg)
	if err != nil {
		t.Fatal(err)
	}
	e12, err := E12EvidencePlane(e12cfg)
	if err != nil {
		t.Fatal(err)
	}
	perKind := len(e12cfg.Periods) + 1
	if len(e11.Rows) != perKind {
		t.Fatalf("E11 rows = %d, want %d", len(e11.Rows), perKind)
	}
	for i := 0; i < perKind; i++ {
		if e12.Rows[i][0] != string(trust.EvidenceComplaints) {
			t.Fatalf("E12 row %d is %q, want a complaints row", i, e12.Rows[i][0])
		}
		got := strings.Join(e12.Rows[i][1:], "|")
		want := strings.Join(e11.Rows[i], "|")
		if got != want {
			t.Errorf("E12 complaint row %d diverged from E11:\n%s", i, testutil.FirstDiff(want, got))
		}
	}
}

// TestE12QuickTableShape: one block per kind (period sweep + that kind's
// single-engine baseline), gossip traffic only on gossiping rows, the
// evidence kinds and caveats visible.
func TestE12QuickTableShape(t *testing.T) {
	tbl, err := E12EvidencePlane(e12Quick())
	if err != nil {
		t.Fatal(err)
	}
	perKind := 4 // 3 periods + baseline
	if len(tbl.Rows) != 2*perKind {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), 2*perKind)
	}
	for ki, kind := range DefaultE12Kinds() {
		block := tbl.Rows[ki*perKind : (ki+1)*perKind]
		for _, row := range block {
			if row[0] != string(kind) {
				t.Errorf("row %v in %s block", row, kind)
			}
		}
		if block[0][1] != "∞" || block[perKind-1][1] != "single engine" {
			t.Errorf("%s block labels: %v / %v", kind, block[0], block[perKind-1])
		}
		if block[perKind-1][6] != "-" {
			t.Errorf("%s baseline row reports a gap to itself: %v", kind, block[perKind-1])
		}
		for _, ri := range []int{1, 2} {
			if block[ri][7] == "-" {
				t.Errorf("%s gossiping row reports no traffic: %v", kind, block[ri])
			}
		}
	}
	if !strings.Contains(tbl.Title, "posterior") || !strings.Contains(tbl.Title, "sharded ×4") {
		t.Errorf("title misses the evidence kinds or the sharding caveat: %q", tbl.Title)
	}
}

// sharedPlaneView is one observer's estimator in the shared-plane reference
// cell: estimates read the single shared set of per-agent Betas, records
// buffer per shard and land at window boundaries in shard order — the
// "unsharded estimator plane" that period-1 full-mesh posterior gossip must
// reproduce exactly.
type sharedPlaneRec struct {
	obs, sub trust.PeerID
	o        trust.Outcome
}

type sharedPlaneView struct {
	shared   map[trust.PeerID]*trust.Beta
	beta     func(trust.PeerID) *trust.Beta
	pending  *[]sharedPlaneRec
	observer trust.PeerID
}

func (v *sharedPlaneView) Record(peer trust.PeerID, o trust.Outcome) {
	*v.pending = append(*v.pending, sharedPlaneRec{obs: v.observer, sub: peer, o: o})
}
func (v *sharedPlaneView) Estimate(peer trust.PeerID) trust.Estimate {
	return v.beta(v.observer).Estimate(peer)
}

// runSharedPlaneReference executes the same sharded session decomposition
// RunCell builds — same per-shard seeds, same session split, same
// lockstep windows of one session — against ONE shared set of per-agent
// Beta estimators, with each window's records applied at the window
// boundary in shard order. It is an independent reimplementation of the
// "unsharded estimator plane" information structure, sharing none of the
// gossip machinery.
func runSharedPlaneReference(cfg market.Config, shards int) (market.Result, error) {
	shared := map[trust.PeerID]*trust.Beta{}
	beta := func(p trust.PeerID) *trust.Beta {
		if shared[p] == nil {
			shared[p] = trust.NewBeta(cfg.Beta)
		}
		return shared[p]
	}
	pending := make([][]sharedPlaneRec, shards)
	engines := make([]*market.Engine, shards)
	remaining := make([]int, shards)
	base, rem := cfg.Sessions/shards, cfg.Sessions%shards
	for k := range engines {
		sub := cfg
		sub.Seed = DeriveSeed(cfg.Seed, k)
		sub.Sessions = base
		if k < rem {
			sub.Sessions++
		}
		sub.Evidence = ""
		sub.Gossip = gossip.Config{}
		k := k
		sub.EstimatorOf = func(id trust.PeerID) trust.Estimator {
			return &sharedPlaneView{shared: shared, beta: beta, pending: &pending[k], observer: id}
		}
		eng, err := market.NewEngine(sub)
		if err != nil {
			return market.Result{}, err
		}
		engines[k] = eng
		remaining[k] = sub.Sessions
	}
	for {
		ran := false
		for k, eng := range engines {
			if remaining[k] == 0 {
				continue
			}
			ran = true
			if err := eng.RunWindow(1); err != nil {
				return market.Result{}, err
			}
			remaining[k]--
		}
		if !ran {
			break
		}
		// Window boundary: every shard's records land on the shared plane in
		// shard order — the full-mesh period-1 exchange, without the fabric.
		for k := range pending {
			for _, r := range pending[k] {
				beta(r.obs).Record(r.sub, r.o)
			}
			pending[k] = nil
		}
	}
	var merged market.Result
	for _, eng := range engines {
		res, err := eng.FinishRun()
		if err != nil {
			return market.Result{}, err
		}
		merged.Merge(res)
	}
	return merged, nil
}

// TestE12PosteriorPeriodOneEqualsSharedEstimatorPlane is the evidence
// plane's headline acceptance property at the cell level: a posterior cell
// gossiping over a full mesh at period 1 is byte-identical to the unsharded
// estimator plane — the same session decomposition running against one
// shared set of per-agent estimators. Second-hand evidence at period 1 is
// first-hand evidence one window late at every shard, and without
// forgetting the posterior is a plain sum, so the two information
// structures coincide exactly.
func TestE12PosteriorPeriodOneEqualsSharedEstimatorPlane(t *testing.T) {
	cfg := e12Quick().withDefaults()
	for trial := 0; trial < cfg.Trials; trial++ {
		cell := ablationCell{
			Seed:       DeriveSeed(cfg.Seed, trial),
			Sessions:   cfg.Sessions,
			Population: cfg.Population,
			Evidence:   trust.EvidencePosterior,
			Gossip:     gossip.Config{Period: 1},
			Shards:     DefaultCellShards,
		}
		mc, err := cell.marketConfig()
		if err != nil {
			t.Fatal(err)
		}
		gossiped := testutil.Variant{Name: fmt.Sprintf("trial %d posterior period-1 mesh", trial), Run: func() (string, error) {
			res, _, err := RunCell(mc, cell.Shards, 0, nil)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		}}
		referenceCfg, err := cell.marketConfig()
		if err != nil {
			t.Fatal(err)
		}
		reference := testutil.Variant{Name: fmt.Sprintf("trial %d shared estimator plane", trial), Run: func() (string, error) {
			res, err := runSharedPlaneReference(referenceCfg, cell.Shards)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		}}
		testutil.ByteIdentical(t, gossiped, reference)
	}
}

// TestE12GapShrinksMonotonicallyPerKind enforces the ablation's headline
// claim at the committed reference configuration (full size, seed 42, the
// table in docs/PERF.md): for *each* evidence kind, walking the period down
// {∞, 64, 16, 4, 1} strictly shrinks the honest-loss gap to that kind's own
// single-engine baseline. This is what "every estimator can shard and
// gossip" means quantitatively, so a regression fails loudly by kind.
func TestE12GapShrinksMonotonicallyPerKind(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E12 (reference configuration)")
	}
	tbl, err := E12EvidencePlane(E12Config{Seed: 42})
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
	prev := map[string]float64{}
	for _, row := range tbl.Rows {
		kind := row[0]
		if row[gapIdx] == "-" {
			delete(prev, kind) // baseline row ends the kind's sweep
			continue
		}
		gap, err := strconv.ParseFloat(row[gapIdx], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if p, ok := prev[kind]; ok && gap >= p {
			t.Errorf("%s gap not strictly shrinking at period %s: %.1f after %.1f\n%s", kind, row[1], gap, p, tbl)
		}
		prev[kind] = gap
	}
}

// TestE12RestrictedKind: RunConfig.Evidence restricts the sweep to one kind.
func TestE12RestrictedKind(t *testing.T) {
	tbl, err := Run("E12", RunConfig{Seed: 5, Quick: true, Evidence: "posterior"})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[0] != "posterior" {
			t.Fatalf("restricted run produced %q rows: %v", row[0], row)
		}
	}
	if _, err := Run("E12", RunConfig{Seed: 5, Quick: true, Evidence: "telepathy"}); err == nil {
		t.Error("unknown evidence kind accepted")
	}
}

// TestGossipEvidenceOnSharded: -gossip with -evidence posterior turns the
// sharded-cell experiments into posterior-gossip cells — no complaint
// backend, the caveat in the title.
func TestGossipEvidenceOnSharded(t *testing.T) {
	tbl, err := Run("E2", RunConfig{Seed: 3, Quick: true, Gossip: "4:mesh", Evidence: "posterior"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Title, "posterior gossip every 4 sessions over mesh") {
		t.Errorf("title misses the posterior-gossip caveat: %q", tbl.Title)
	}
	if strings.Contains(tbl.Title, "async evidence") {
		t.Errorf("posterior cells must not claim a complaint backend: %q", tbl.Title)
	}
}

// TestE12ExchangeLatencyColumnIsOptInAndPure: the wall-clock latency column
// of the shared ablation sweep — on E12 and on E11 — appears only when asked
// for, renders p50/p95/p99 on gossiping rows and "-" on the ∞ and baseline
// rows — and observing it must not perturb the deterministic table: every
// pre-existing column is byte-identical with the column on and off.
func TestE12ExchangeLatencyColumnIsOptInAndPure(t *testing.T) {
	for _, tc := range []struct {
		id        string
		periodCol int
		run       func(latency bool) (*Table, error)
	}{
		{"E12", 1, func(latency bool) (*Table, error) {
			cfg := e12Quick()
			cfg.ExchangeLatency = latency
			return E12EvidencePlane(cfg)
		}},
		{"E11", 0, func(latency bool) (*Table, error) {
			cfg := e11Quick()
			cfg.ExchangeLatency = latency
			return E11GossipPeriod(cfg)
		}},
	} {
		plain, err := tc.run(false)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := tc.run(true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(timed.Cols), len(plain.Cols)+1; got != want {
			t.Fatalf("%s: cols = %d, want %d", tc.id, got, want)
		}
		if timed.Cols[len(timed.Cols)-1] != "exchange p50/p95/p99 µs" {
			t.Fatalf("%s: latency column header %q", tc.id, timed.Cols[len(timed.Cols)-1])
		}
		if !strings.Contains(timed.Title, "wall-clock") || strings.Contains(plain.Title, "wall-clock") {
			t.Errorf("%s: wall-clock caveat: timed %q / plain %q", tc.id, timed.Title, plain.Title)
		}
		if len(timed.Rows) != len(plain.Rows) {
			t.Fatalf("%s: rows = %d vs %d", tc.id, len(timed.Rows), len(plain.Rows))
		}
		for ri, row := range timed.Rows {
			for ci, cell := range plain.Rows[ri] {
				if row[ci] != cell {
					t.Errorf("%s row %d col %d: %q with latency vs %q without — observation perturbed the table", tc.id, ri, ci, row[ci], cell)
				}
			}
			lat := row[len(row)-1]
			if period := row[tc.periodCol]; period == "∞" || period == "single engine" {
				if lat != "-" {
					t.Errorf("%s: non-gossiping row %d reports latency %q", tc.id, ri, lat)
				}
				continue
			}
			if parts := strings.Split(lat, "/"); len(parts) != 3 {
				t.Errorf("%s: gossiping row %d latency %q, want p50/p95/p99", tc.id, ri, lat)
			}
		}
	}
}
