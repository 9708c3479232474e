package market

import (
	"errors"
	"fmt"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/gossip"

	// Registers the "pgrid" reputation backend.
	_ "trustcoop/internal/pgrid"
)

func repStoreConfig(t *testing.T, backend string, seed int64) Config {
	t.Helper()
	return Config{
		Seed:     seed,
		Sessions: 150,
		Agents:   population(t, agent.PopConfig{Honest: 6, Opportunist: 2, Stake: 0}, seed+1),
		Strategy: StrategyTrustAware,
		RepStore: backend,
	}
}

// TestEngineRepStoreBackends runs the marketplace over every registered
// backend spec the experiments use: each must complete sessions, collect
// complaints, and leave a queryable store behind.
func TestEngineRepStoreBackends(t *testing.T) {
	for _, backend := range []string{"memory", "sharded", "async", "async:sharded", "pgrid"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			eng, err := NewEngine(repStoreConfig(t, backend, 61))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 || res.Defected == 0 {
				t.Fatalf("run too quiet to exercise the complaint path: %+v", res)
			}
			store := eng.RepStore()
			if store == nil {
				t.Fatal("engine did not expose its reputation store")
			}
			total := 0
			for _, a := range eng.cfg.Agents {
				n, err := store.Received(a.ID)
				if err != nil {
					t.Fatal(err)
				}
				total += n
			}
			if total == 0 {
				t.Errorf("no complaints reached the %s store", backend)
			}
		})
	}
}

// TestEngineRepStoreBackendEquivalence: the exact centralised backends
// (memory, sharded) hold identical counts, so the whole run — every planning
// decision included — must be byte-identical between them.
func TestEngineRepStoreBackendEquivalence(t *testing.T) {
	run := func(backend string) string {
		eng, err := NewEngine(repStoreConfig(t, backend, 67))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res)
	}
	mem, sharded := run("memory"), run("sharded")
	if mem != sharded {
		t.Errorf("sharded run diverged from memory run:\n%s\nvs\n%s", sharded, mem)
	}
}

// TestEngineRepStoreAsyncFlushesAtEnd: after Run, the write-behind pipeline
// must be fully drained so post-run assessment sees every complaint.
func TestEngineRepStoreAsyncFlushesAtEnd(t *testing.T) {
	cfg := repStoreConfig(t, "async:sharded", 71)
	cfg.RepStoreConfig = complaints.BackendConfig{BatchSize: 32}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	as, ok := eng.RepStore().(*complaints.AsyncStore)
	if !ok {
		t.Fatalf("store = %T, want *complaints.AsyncStore", eng.RepStore())
	}
	st := as.Stats()
	if st.Enqueued == 0 {
		t.Fatal("no complaints flowed through the async pipeline")
	}
	if st.Applied != st.Enqueued {
		t.Errorf("backlog not drained after Run: %+v", st)
	}
}

// TestEngineRepStoreDeterministic: same seed, same backend ⇒ identical runs,
// including over the batched async pipeline.
func TestEngineRepStoreDeterministic(t *testing.T) {
	for _, backend := range []string{"sharded", "async", "pgrid"} {
		run := func() string {
			eng, err := NewEngine(repStoreConfig(t, backend, 73))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v", res)
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: identical configs diverged:\n%s\nvs\n%s", backend, a, b)
		}
	}
}

func TestEngineRejectsRepStoreWithEstimatorOf(t *testing.T) {
	cfg := repStoreConfig(t, "memory", 3)
	cfg.EstimatorOf = func(trust.PeerID) trust.Estimator { return trust.NewBeta(trust.BetaConfig{}) }
	if _, err := NewEngine(cfg); err == nil {
		t.Error("RepStore together with EstimatorOf accepted")
	}
	cfg = repStoreConfig(t, "no-such-backend", 3)
	if _, err := NewEngine(cfg); err == nil {
		t.Error("unknown backend accepted")
	}
}

// brokenStore fails every write, standing in for a decentralised store whose
// routing broke mid-run.
type brokenStore struct{ err error }

func (b brokenStore) File(complaints.Complaint) error    { return b.err }
func (b brokenStore) Received(trust.PeerID) (int, error) { return 0, nil }
func (b brokenStore) Filed(trust.PeerID) (int, error)    { return 0, nil }

// TestEngineSurfacesComplaintStoreFailure: a store failure during trust
// feedback must abort the run with the error instead of silently dropping
// complaints.
func TestEngineSurfacesComplaintStoreFailure(t *testing.T) {
	boom := errors.New("store down")
	agents := population(t, agent.PopConfig{Honest: 4, Opportunist: 4, Stake: 0, OpportunistThreshold: goods.Unit / 100}, 5)
	assessor := complaints.Assessor{Store: brokenStore{err: boom}, Population: agent.IDs(agents)}
	eng, err := NewEngine(Config{
		Seed:     83,
		Sessions: 200,
		Agents:   agents,
		Strategy: StrategyTrustAware,
		EstimatorOf: func(id trust.PeerID) trust.Estimator {
			return &complaints.Estimator{Assessor: assessor, Observer: id}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want the store failure", err)
	}
}

// TestPlanningEstimatorPerEvidencePlane: with a RepStore the planner reads
// trust through one shared, observer-free complaints.Estimator over the
// engine's assessor, and planning creates no per-agent estimator; the
// posterior book of a gossiping engine and private Beta estimators are
// per-agent state, so there each party plans through its own estimator.
func TestPlanningEstimatorPerEvidencePlane(t *testing.T) {
	agents := func() []*agent.Agent { return population(t, agent.PopConfig{Honest: 4}, 7) }
	eng, err := NewEngine(Config{Seed: 1, Sessions: 1, Agents: agents(), RepStore: "sharded"})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := eng.participant(0), eng.participant(1)
	shared, ok := p0.Estimator.(*complaints.Estimator)
	if !ok || shared.Observer != "" || p1.Estimator != p0.Estimator {
		t.Fatalf("RepStore engine plans through %#v and %#v, want one observer-free complaints.Estimator",
			p0.Estimator, p1.Estimator)
	}
	if eng.ests[0] != nil || eng.ests[1] != nil {
		t.Error("planning created per-agent estimators in RepStore mode")
	}
	if own := eng.estimatorAt(0).(*complaints.Estimator); own.Observer != agents()[0].ID {
		t.Errorf("recording estimator observes %q, want %q", own.Observer, agents()[0].ID)
	}

	fabric, err := gossip.NewFabric(gossip.Config{Period: 4}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"posterior book": {Seed: 1, Sessions: 1, Agents: agents(), Evidence: trust.EvidencePosterior,
			Gossip: gossip.Config{Period: 4}, GossipNode: fabric.Node(0)},
		"private beta": {Seed: 1, Sessions: 1, Agents: agents()},
	} {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p0, p1 := eng.participant(0), eng.participant(1)
		if p0.Estimator != eng.estimatorAt(0) || p1.Estimator != eng.estimatorAt(1) || p0.Estimator == p1.Estimator {
			t.Errorf("%s: participants plan through %p and %p, want their own estimators %p and %p",
				name, p0.Estimator, p1.Estimator, eng.estimatorAt(0), eng.estimatorAt(1))
		}
	}
}
