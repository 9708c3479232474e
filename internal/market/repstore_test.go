package market

import (
	"errors"
	"fmt"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/reputation"
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

// TestPlanningEstimatorPerEvidencePlane: a RepStore engine holds no
// per-agent estimator state. Its one complaints.Estimator over the engine's
// assessor serves every agent's planning reads and records, and a record
// through it files as the agent estimatorAt was asked for. The posterior
// book of a gossiping engine and private Beta estimators are per-agent
// state, so there each party plans through its own estimator.
func TestPlanningEstimatorPerEvidencePlane(t *testing.T) {
	agents := func() []*agent.Agent { return population(t, agent.PopConfig{Honest: 4}, 7) }
	eng, err := NewEngine(Config{Seed: 1, Sessions: 1, Agents: agents(), RepStore: "sharded"})
	if err != nil {
		t.Fatal(err)
	}
	if eng.ests != nil {
		t.Errorf("RepStore engine holds a per-agent estimator slice of %d", len(eng.ests))
	}
	p0, p1 := eng.participant(0), eng.participant(1)
	shared, ok := p0.Estimator.(*complaints.Estimator)
	if !ok || shared != eng.complaintEst || p1.Estimator != p0.Estimator {
		t.Fatalf("RepStore engine plans through %p and %p, want its one complaints.Estimator %p",
			p0.Estimator, p1.Estimator, eng.complaintEst)
	}
	ids := agent.IDs(agents())
	for _, r := range []struct{ observer, subject int32 }{{0, 1}, {2, 1}, {2, 3}} {
		est := eng.estimatorAt(r.observer, ids[r.observer])
		if est != p0.Estimator {
			t.Fatalf("agent %d records through %p, want the planning estimator %p", r.observer, est, p0.Estimator)
		}
		est.Record(ids[r.subject], trust.Outcome{Cooperated: false})
	}
	for i, want := range [][2]int{{0, 1}, {2, 0}, {0, 2}, {1, 0}} { // (received, filed)
		got := storeCounts(t, eng.RepStore(), ids[i])
		if got != want {
			t.Errorf("%s: (received, filed) = %v, want %v", ids[i], got, want)
		}
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
		if p0.Estimator != eng.estimatorAt(0, eng.agents[0].ID) || p1.Estimator != eng.estimatorAt(1, eng.agents[1].ID) || p0.Estimator == p1.Estimator {
			t.Errorf("%s: participants plan through %p and %p, want their own estimators %p and %p",
				name, p0.Estimator, p1.Estimator, eng.estimatorAt(0, eng.agents[0].ID), eng.estimatorAt(1, eng.agents[1].ID))
		}
	}
}

// storeCounts is the (received, filed) complaint counts of id in store.
func storeCounts(t *testing.T, store complaints.Store, id trust.PeerID) [2]int {
	t.Helper()
	received, err := store.Received(id)
	if err != nil {
		t.Fatal(err)
	}
	filed, err := store.Filed(id)
	if err != nil {
		t.Fatal(err)
	}
	return [2]int{received, filed}
}

// TestRepStoreRecordsLikePerAgentEstimators: a RepStore engine records every
// agent's complaints through one shared estimator. Replaying the run's
// ledger through reputation.Feed into a fresh per-agent complaints.Estimator
// for each agent, over a new MemoryStore, must give every agent the same
// (received, filed) counts the engine's store holds, on every registered
// backend the engine accepts.
func TestRepStoreRecordsLikePerAgentEstimators(t *testing.T) {
	accepted := map[string]bool{}
	for _, backend := range complaints.Backends() {
		for _, strategy := range []Strategy{StrategyNaive, StrategyTrustAware} {
			agents := population(t, agent.PopConfig{Honest: 6, Opportunist: 3, Random: 3, LiarFraction: 0.3}, 89)
			eng, err := NewEngine(Config{Seed: 97, Sessions: 400, Concurrency: 8, Agents: agents, Strategy: strategy, RepStore: backend})
			if err != nil {
				t.Logf("%s: engine rejects the backend: %v", backend, err)
				continue
			}
			accepted[backend] = true
			t.Run(fmt.Sprintf("%s/%v", backend, strategy), func(t *testing.T) {
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Defected == 0 {
					t.Fatalf("run too quiet to file complaints: %+v", res)
				}
				liar := make(map[trust.PeerID]bool, len(agents))
				for _, a := range agents {
					liar[a.ID] = a.LiesAsWitness
				}
				oracle := complaints.Assessor{Store: complaints.NewMemoryStore(), Population: agent.IDs(agents)}
				ests := make(map[trust.PeerID]trust.Estimator, len(agents))
				estimatorOf := func(id trust.PeerID) trust.Estimator {
					if ests[id] == nil {
						ests[id] = &complaints.Estimator{Assessor: oracle, Observer: id}
					}
					return ests[id]
				}
				for _, ev := range eng.Ledger().Events() {
					if err := reputation.Feed(ev, estimatorOf, func(id trust.PeerID) bool { return liar[id] }); err != nil {
						t.Fatal(err)
					}
				}
				filed := 0
				for _, a := range agents {
					got, want := storeCounts(t, eng.RepStore(), a.ID), storeCounts(t, oracle.Store, a.ID)
					if got != want {
						t.Errorf("%s: (received, filed) = %v, per-agent estimators give %v", a.ID, got, want)
					}
					filed += want[1]
				}
				if filed == 0 {
					t.Error("the replay filed no complaint")
				}
			})
		}
	}
	for _, backend := range []string{"memory", "sharded", "async", "pgrid"} {
		if !accepted[backend] {
			t.Errorf("engine rejected the %s backend", backend)
		}
	}
}
