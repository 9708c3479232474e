package trust

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBetaPriorForUnknownPeer(t *testing.T) {
	b := NewBeta(BetaConfig{})
	est := b.Estimate("stranger")
	if est.P != 0.5 {
		t.Errorf("prior P = %g, want 0.5 (uniform prior)", est.P)
	}
	if est.Confidence != 0 || est.Samples != 0 {
		t.Errorf("unknown peer confidence/samples = %g/%g, want 0/0", est.Confidence, est.Samples)
	}
}

func TestBetaCustomPrior(t *testing.T) {
	b := NewBeta(BetaConfig{PriorAlpha: 3, PriorBeta: 1})
	if est := b.Estimate("x"); est.P != 0.75 {
		t.Errorf("optimistic prior = %g, want 0.75", est.P)
	}
}

func TestBetaPosteriorMean(t *testing.T) {
	b := NewBeta(BetaConfig{})
	for i := 0; i < 8; i++ {
		b.Record("p", Outcome{Cooperated: true})
	}
	for i := 0; i < 2; i++ {
		b.Record("p", Outcome{Cooperated: false})
	}
	// (1+8)/(1+8+1+2) = 9/12.
	if est := b.Estimate("p"); math.Abs(est.P-0.75) > 1e-12 {
		t.Errorf("posterior = %g, want 0.75", est.P)
	}
	if est := b.Estimate("p"); est.Samples != 10 {
		t.Errorf("samples = %g, want 10", est.Samples)
	}
}

func TestBetaWeightedOutcomes(t *testing.T) {
	b := NewBeta(BetaConfig{})
	b.Record("p", Outcome{Cooperated: true, Weight: 5})
	coop, defect := b.Counts("p")
	if coop != 5 || defect != 0 {
		t.Errorf("counts = %g/%g, want 5/0", coop, defect)
	}
	// Zero/negative weights count as 1.
	b.Record("p", Outcome{Cooperated: false, Weight: -2})
	if _, defect = b.Counts("p"); defect != 1 {
		t.Errorf("defect count = %g, want 1", defect)
	}
}

func TestBetaConvergesToTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, truth := range []float64{0.1, 0.5, 0.9} {
		b := NewBeta(BetaConfig{})
		for i := 0; i < 2000; i++ {
			b.Record("p", Outcome{Cooperated: rng.Float64() < truth})
		}
		est := b.Estimate("p")
		if math.Abs(est.P-truth) > 0.05 {
			t.Errorf("truth %g: estimate %g off by more than 0.05", truth, est.P)
		}
		if est.Confidence < 0.99 {
			t.Errorf("truth %g: confidence %g after 2000 samples", truth, est.Confidence)
		}
	}
}

func TestBetaDecayTracksBehaviourChange(t *testing.T) {
	// A peer cooperates 300 times, then turns dishonest. With forgetting the
	// estimate must drop quickly; without, it lingers high.
	run := func(decay float64) float64 {
		b := NewBeta(BetaConfig{Decay: decay})
		for i := 0; i < 300; i++ {
			b.Record("p", Outcome{Cooperated: true})
		}
		for i := 0; i < 50; i++ {
			b.Record("p", Outcome{Cooperated: false})
		}
		return b.Estimate("p").P
	}
	withDecay := run(0.9)
	noDecay := run(1)
	if withDecay > 0.2 {
		t.Errorf("decayed estimate %g should have collapsed after 50 defections", withDecay)
	}
	if noDecay < 0.6 {
		t.Errorf("undecayed estimate %g should still reflect history", noDecay)
	}
}

func TestBetaPeers(t *testing.T) {
	b := NewBeta(BetaConfig{})
	b.Record("b", Outcome{Cooperated: true})
	b.Record("a", Outcome{Cooperated: false})
	peers := b.Peers()
	if len(peers) != 2 || peers[0] != "a" || peers[1] != "b" {
		t.Errorf("Peers = %v, want sorted [a b]", peers)
	}
}

func TestBetaConcurrentAccess(t *testing.T) {
	b := NewBeta(BetaConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Record("shared", Outcome{Cooperated: i%2 == 0})
				_ = b.Estimate("shared")
			}
		}(g)
	}
	wg.Wait()
	if est := b.Estimate("shared"); est.Samples != 4000 {
		t.Errorf("samples = %g, want 4000", est.Samples)
	}
}

func TestReliabilityProperties(t *testing.T) {
	if r := Reliability(0, 0.1); r != 0 {
		t.Errorf("Reliability(0) = %g, want 0", r)
	}
	if r := Reliability(1e6, 0.1); r < 0.999999 {
		t.Errorf("Reliability(1e6) = %g, want ≈1", r)
	}
	f := func(rawN uint16, rawE uint8) bool {
		n := float64(rawN)
		eps := 0.01 + float64(rawE%50)/100
		r := Reliability(n, eps)
		r2 := Reliability(n+1, eps)
		return r >= 0 && r <= 1 && r2 >= r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSamplesForInvertsReliability: at Mui et al.'s sample count
// m(ε, δ) = −ln(δ/2)/(2ε²) the reliability is exactly 1−δ.
func TestSamplesForInvertsReliability(t *testing.T) {
	eps, delta := 0.1, 0.05
	m := -math.Log(delta/2) / (2 * eps * eps)
	if r := Reliability(m, eps); math.Abs(r-(1-delta)) > 1e-9 {
		t.Errorf("Reliability(m(ε, δ)) = %g, want %g", r, 1-delta)
	}
}

func TestOracle(t *testing.T) {
	o := &Oracle{Truth: map[PeerID]float64{"good": 0.95, "bad": 0.05}, Prior: 0.4}
	if est := o.Estimate("good"); est.P != 0.95 || est.Confidence != 1 {
		t.Errorf("oracle estimate = %+v", est)
	}
	if est := o.Estimate("unknown"); est.P != 0.4 || est.Confidence != 0 {
		t.Errorf("oracle fallback = %+v", est)
	}
	o.Record("good", Outcome{Cooperated: false}) // must be a no-op
	if est := o.Estimate("good"); est.P != 0.95 {
		t.Error("oracle mutated by Record")
	}
}

func TestBetaConfigDefaults(t *testing.T) {
	cfg := BetaConfig{Decay: 2, Epsilon: -1}.withDefaults()
	if cfg.Decay != 1 || cfg.Epsilon != DefaultEpsilon || cfg.PriorAlpha != 1 || cfg.PriorBeta != 1 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}
