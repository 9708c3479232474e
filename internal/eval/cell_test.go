package eval

import (
	"math/rand"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
	"trustcoop/internal/trust/gossip"
)

func cellAgents(t *testing.T) []*agent.Agent {
	t.Helper()
	agents, err := agent.NewPopulation(agent.PopConfig{Honest: 8, Opportunist: 2, Stake: 2 * goods.Unit},
		rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return agents
}

func cellConfig(t *testing.T, sessions int) market.Config {
	return market.Config{Seed: 21, Sessions: sessions, Agents: cellAgents(t)}
}

// TestRunCellUnshardedMatchesSingleEngine: shards <= 1 must be exactly the
// plain engine path, byte for byte.
func TestRunCellUnshardedMatchesSingleEngine(t *testing.T) {
	eng, err := market.NewEngine(cellConfig(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		got, _, err := RunCell(cellConfig(t, 50), shards, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed != want.Completed || got.Sessions != want.Sessions ||
			got.Welfare != want.Welfare || got.NetStats != want.NetStats {
			t.Errorf("shards=%d: %+v != single engine %+v", shards, got, want)
		}
	}
}

// TestRunCellEngineCountInvariant is the tentpole's determinism contract:
// for a fixed decomposition, the merged result is identical however many
// sub-engines run concurrently.
func TestRunCellEngineCountInvariant(t *testing.T) {
	base, _, err := RunCell(cellConfig(t, 101), 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, engines := range []int{2, 3, 4, 16} {
		got, _, err := RunCell(cellConfig(t, 101), 4, engines, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed != base.Completed || got.Defected != base.Defected ||
			got.Welfare != base.Welfare || got.TradeVolume != base.TradeVolume ||
			got.NetStats != base.NetStats ||
			got.ConsumerExposure != base.ConsumerExposure ||
			got.RealizedConsumerLoss != base.RealizedConsumerLoss {
			t.Errorf("engines=%d: %+v != engines=1 %+v", engines, got, base)
		}
	}
}

// TestRunCellPartitionsAllSessions: every session of the cell runs exactly
// once, whatever the remainder of sessions/shards.
func TestRunCellPartitionsAllSessions(t *testing.T) {
	for _, tc := range []struct{ sessions, shards int }{{100, 4}, {101, 4}, {7, 7}, {10, 3}} {
		res, _, err := RunCell(cellConfig(t, tc.sessions), tc.shards, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sessions != tc.sessions {
			t.Errorf("sessions=%d shards=%d: merged sessions = %d", tc.sessions, tc.shards, res.Sessions)
		}
		if got := res.NoTrade + res.Completed + res.Defected + res.Aborted; got != tc.sessions {
			t.Errorf("sessions=%d shards=%d: outcome counts sum to %d", tc.sessions, tc.shards, got)
		}
	}
}

// TestRunCellShardsDrawIndependentStreams: two shards must not replay the
// same marketplace (seed derivation decorrelates them), so the merged result
// differs from any single shard scaled up.
func TestRunCellShardsDrawIndependentStreams(t *testing.T) {
	res2, _, err := RunCell(cellConfig(t, 80), 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res4, _, err := RunCell(cellConfig(t, 80), 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Different decompositions are different experiments — if they agreed on
	// every float the shards would have to be replaying identical streams.
	if res2.ConsumerExposure == res4.ConsumerExposure && res2.Welfare == res4.Welfare &&
		res2.Completed == res4.Completed && res2.NetStats == res4.NetStats {
		t.Error("shards=2 and shards=4 produced identical results; sub-engine seeds are not decorrelated")
	}
}

// TestRunCellRejectsOverSharding: a cell cannot be split into more engines
// than it has sessions.
func TestRunCellRejectsOverSharding(t *testing.T) {
	if _, _, err := RunCell(cellConfig(t, 3), 4, 2, nil); err == nil {
		t.Error("sharding 3 sessions across 4 engines accepted")
	}
}

// TestRunCellGossipEngineCountInvariant extends the tentpole determinism
// contract to gossiping cells: the lockstep windows make each sub-engine's
// work between sync points self-contained and the exchange itself runs on
// the coordinating goroutine, so the merged result is identical however many
// engines run concurrently — for both topologies.
func TestRunCellGossipEngineCountInvariant(t *testing.T) {
	for _, gc := range []gossip.Config{
		{Period: 3},
		{Period: 5, Fanout: 1},
		{Period: 2, Topology: gossip.TopologyRing},
	} {
		cfg := cellConfig(t, 101)
		cfg.Strategy = market.StrategyTrustAware
		cfg.RepStore = "sharded"
		cfg.Gossip = gc
		base, _, err := RunCell(cfg, 4, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, engines := range []int{2, 3, 4, 16} {
			cfg := cellConfig(t, 101)
			cfg.Strategy = market.StrategyTrustAware
			cfg.RepStore = "sharded"
			cfg.Gossip = gc
			got, _, err := RunCell(cfg, 4, engines, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Completed != base.Completed || got.Defected != base.Defected ||
				got.Welfare != base.Welfare || got.TradeVolume != base.TradeVolume ||
				got.NetStats != base.NetStats ||
				got.ConsumerExposure != base.ConsumerExposure ||
				got.RealizedConsumerLoss != base.RealizedConsumerLoss {
				t.Errorf("gossip %s, engines=%d: %+v != engines=1 %+v", gc, engines, got, base)
			}
		}
	}
}

// TestRunCellGossipChangesOutcomes: gossip is an information-structure
// change, so a gossiping cell must not reproduce the isolated-shard cell
// bit for bit — otherwise the exchange delivered nothing that mattered.
func TestRunCellGossipChangesOutcomes(t *testing.T) {
	run := func(gc gossip.Config) market.Result {
		cfg := cellConfig(t, 160)
		cfg.Strategy = market.StrategyTrustAware
		cfg.RepStore = "sharded"
		cfg.Gossip = gc
		res, _, err := RunCell(cfg, 4, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	isolated, gossiped := run(gossip.Config{}), run(gossip.Config{Period: 1})
	if isolated.Welfare == gossiped.Welfare && isolated.Completed == gossiped.Completed &&
		isolated.ConsumerExposure == gossiped.ConsumerExposure {
		t.Error("period-1 gossip left the cell bit-identical to isolated shards; no evidence was exchanged")
	}
}

// TestRunCellGossipStats: the fabric accounting must reflect real exchange
// traffic and full delivery (mesh: every complaint reaches the 3 peer
// shards).
func TestRunCellGossipStats(t *testing.T) {
	cfg := cellConfig(t, 120)
	cfg.Strategy = market.StrategyTrustAware
	cfg.RepStore = "sharded"
	cfg.Gossip = gossip.Config{Period: 4}
	res, stats, err := RunCell(cfg, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Defected == 0 {
		t.Fatal("no defections; the cell filed no complaints to gossip")
	}
	if stats.ComplaintsDelivered == 0 || stats.BytesDelivered == 0 || stats.Rounds == 0 {
		t.Errorf("gossip ran but accounting is empty: %+v", stats)
	}
	if stats.ComplaintsDelivered%3 != 0 {
		t.Errorf("mesh over 4 shards must deliver each complaint to exactly 3 peers; delivered %d", stats.ComplaintsDelivered)
	}
	if stats.Reads == 0 {
		t.Errorf("trust-aware cell did not read through the gossip nodes: %+v", stats)
	}
}

// TestRunCellGossipRequiresRepStore: gossip exchanges complaint evidence, so
// a cell without a complaint backend must be rejected loudly.
func TestRunCellGossipRequiresRepStore(t *testing.T) {
	cfg := cellConfig(t, 60)
	cfg.Gossip = gossip.Config{Period: 4}
	if _, _, err := RunCell(cfg, 4, 2, nil); err == nil {
		t.Error("gossip without RepStore accepted")
	}
}

// TestRunCellGossipRejectsUnshardedCell: gossip on a single-engine cell has
// no peers to exchange with; silently ignoring it would mislabel the table
// (the title claims gossip ran), so it must be rejected.
func TestRunCellGossipRejectsUnshardedCell(t *testing.T) {
	cfg := cellConfig(t, 60)
	cfg.RepStore = "sharded"
	cfg.Gossip = gossip.Config{Period: 4}
	if _, _, err := RunCell(cfg, 1, 1, nil); err == nil {
		t.Error("gossip on an unsharded cell accepted")
	}
}

// TestRunCellWithRepStore: sharded cells build one reputation store per
// sub-engine; the run must succeed and file complaints in every shard.
func TestRunCellWithRepStore(t *testing.T) {
	cfg := market.Config{
		Seed:     9,
		Sessions: 60,
		Agents: func() []*agent.Agent {
			agents, err := agent.NewPopulation(agent.PopConfig{Honest: 6, Opportunist: 3},
				rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			return agents
		}(),
		Strategy: market.StrategyTrustAware,
		RepStore: "async:sharded",
	}
	res, _, err := RunCell(cfg, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 60 {
		t.Errorf("sessions = %d", res.Sessions)
	}
	if res.Defected == 0 {
		t.Error("no defections against an opportunist third of the population; complaint pipeline untested")
	}
}
