package mui

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"trustcoop/internal/trust"
)

func TestDirectEvidenceDominatesWhenPresent(t *testing.T) {
	n := NewNetwork(Config{})
	for i := 0; i < 100; i++ {
		n.Record("alice", "target", trust.Outcome{Cooperated: true})
	}
	est := n.Estimate("alice", "target")
	if est.P < 0.9 {
		t.Errorf("estimate %g after 100 cooperative encounters", est.P)
	}
}

func TestWitnessReportsFillEvidenceGap(t *testing.T) {
	n := NewNetwork(Config{})
	// Alice has never met the target but knows (and trusts) Bob, who has.
	for i := 0; i < 50; i++ {
		n.Record("alice", "bob", trust.Outcome{Cooperated: true})
		n.Record("bob", "target", trust.Outcome{Cooperated: false})
	}
	est := n.Estimate("alice", "target")
	if est.P > 0.3 {
		t.Errorf("estimate %g: Bob's 50 bad reports should dominate the 0.5 prior", est.P)
	}
	// Without the witness the estimate would be the prior.
	if direct := n.Estimate("carol", "target"); direct.P != 0.5 {
		t.Errorf("isolated observer estimate = %g, want prior 0.5", direct.P)
	}
}

func TestUntrustedWitnessIsDiscounted(t *testing.T) {
	build := func(witnessTrust bool) float64 {
		n := NewNetwork(Config{})
		// The witness claims the target always defects…
		for i := 0; i < 50; i++ {
			n.Record("bob", "target", trust.Outcome{Cooperated: false})
			// …and alice's own experience with the witness varies.
			n.Record("alice", "bob", trust.Outcome{Cooperated: witnessTrust})
		}
		return n.Estimate("alice", "target").P
	}
	trusted := build(true)
	distrusted := build(false)
	if !(distrusted > trusted) {
		t.Errorf("distrusted witness moved the estimate as far as the trusted one: %g vs %g", distrusted, trusted)
	}
}

func TestChainDepthTwoReachesIndirectWitness(t *testing.T) {
	// alice → bob → carol(evidence about target). Depth 1 cannot see carol;
	// depth 2 can.
	records := func(n *Network) {
		for i := 0; i < 40; i++ {
			n.Record("alice", "bob", trust.Outcome{Cooperated: true})
			n.Record("bob", "carol", trust.Outcome{Cooperated: true})
			n.Record("carol", "target", trust.Outcome{Cooperated: false})
		}
	}
	shallow := NewNetwork(Config{MaxDepth: 1})
	records(shallow)
	deep := NewNetwork(Config{MaxDepth: 2})
	records(deep)

	if est := shallow.Estimate("alice", "target"); est.P != 0.5 {
		t.Errorf("depth-1 estimate = %g, want prior (carol unreachable)", est.P)
	}
	if est := deep.Estimate("alice", "target"); est.P > 0.3 {
		t.Errorf("depth-2 estimate = %g, want well below prior", est.P)
	}
}

func TestEstimateConvergesAcrossPopulation(t *testing.T) {
	// 20 observers each see a few interactions with a 0.8-cooperative
	// target; pooled witness evidence beats any single observer's sample.
	rng := rand.New(rand.NewSource(9))
	n := NewNetwork(Config{MaxWitnesses: 32})
	truth := 0.8
	observers := make([]trust.PeerID, 20)
	for i := range observers {
		observers[i] = trust.PeerID(fmt.Sprintf("o%d", i))
	}
	// Observers know each other (acquaintance edges with good trust).
	for _, a := range observers {
		for _, b := range observers {
			if a != b {
				n.Record(a, b, trust.Outcome{Cooperated: true})
			}
		}
		for i := 0; i < 10; i++ {
			n.Record(a, "target", trust.Outcome{Cooperated: rng.Float64() < truth})
		}
	}
	var errSum float64
	for _, a := range observers {
		errSum += math.Abs(n.Estimate(a, "target").P - truth)
	}
	pooledMAE := errSum / float64(len(observers))
	if pooledMAE > 0.1 {
		t.Errorf("pooled MAE %g, want ≤ 0.1 with 200 pooled samples", pooledMAE)
	}
}

func TestViewImplementsEstimator(t *testing.T) {
	n := NewNetwork(Config{})
	v := n.View("alice")
	v.Record("bob", trust.Outcome{Cooperated: true})
	if est := v.Estimate("bob"); est.P <= 0.5 {
		t.Errorf("view estimate = %g, want above prior", est.P)
	}
	// The view writes into the shared network.
	if coop, _ := n.table("alice").Counts("bob"); coop != 1 {
		t.Error("view Record did not reach the network")
	}
}

func TestNetworkConcurrentUse(t *testing.T) {
	n := NewNetwork(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			me := trust.PeerID(fmt.Sprintf("agent%d", g))
			for i := 0; i < 200; i++ {
				n.Record(me, "target", trust.Outcome{Cooperated: true})
				_ = n.Estimate(me, "target")
			}
		}(g)
	}
	wg.Wait()
	if est := n.Estimate("agent0", "target"); est.P < 0.8 {
		t.Errorf("estimate %g after heavy cooperation", est.P)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxDepth != 1 || cfg.MaxWitnesses != 16 || cfg.Epsilon != trust.DefaultEpsilon {
		t.Errorf("defaults: %+v", cfg)
	}
}
