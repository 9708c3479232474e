package agent

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"trustcoop/internal/decision"
	"trustcoop/internal/goods"
)

func ctx(defectionGain, stake goods.Money, progress float64) DefectContext {
	return DefectContext{
		Role:           RoleSupplier,
		DefectionGain:  defectionGain,
		CompletionGain: 10 * goods.Unit,
		Stake:          stake,
		Progress:       progress,
		Rng:            rand.New(rand.NewSource(1)),
	}
}

func TestHonestNeverDefects(t *testing.T) {
	h := Honest{}
	for _, gain := range []goods.Money{0, goods.Unit, goods.Unlimited} {
		if h.Defect(ctx(gain, 0, 0.9)) {
			t.Errorf("honest agent defected at gain %v", gain)
		}
	}
}

func TestRationalComparesGainToStake(t *testing.T) {
	r := Rational{}
	if r.Defect(ctx(5*goods.Unit, 5*goods.Unit, 0.5)) {
		t.Error("rational defected when gain equals stake")
	}
	if !r.Defect(ctx(5*goods.Unit+1, 5*goods.Unit, 0.5)) {
		t.Error("rational cooperated when gain exceeds stake")
	}
	if r.Defect(ctx(-goods.Unit, 0, 0.5)) {
		t.Error("rational defected at a loss")
	}
}

func TestOpportunistIgnoresStake(t *testing.T) {
	o := Opportunist{Threshold: 2 * goods.Unit}
	if !o.Defect(ctx(3*goods.Unit, goods.Unlimited, 0.1)) {
		t.Error("opportunist deterred by stake")
	}
	if o.Defect(ctx(goods.Unit, 0, 0.9)) {
		t.Error("opportunist defected below threshold")
	}
}

func TestRandomDefectorRate(t *testing.T) {
	r := RandomDefector{P: 0.25}
	rng := rand.New(rand.NewSource(77))
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		c := ctx(0, 0, 0.5)
		c.Rng = rng
		if r.Defect(c) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.23 || rate > 0.27 {
		t.Errorf("empirical rate %g, want ≈ 0.25", rate)
	}
}

func TestBackstabberWaitsForProgressAndProfit(t *testing.T) {
	b := Backstabber{After: 0.7}
	if b.Defect(ctx(5*goods.Unit, 0, 0.5)) {
		t.Error("backstabbed too early")
	}
	if !b.Defect(ctx(5*goods.Unit, 0, 0.8)) {
		t.Error("did not backstab when profitable and late")
	}
	if b.Defect(ctx(-goods.Unit, 0, 0.9)) {
		t.Error("backstabbed at a loss")
	}
}

func TestBehaviorNames(t *testing.T) {
	behaviors := []Behavior{Honest{}, Rational{}, Opportunist{}, RandomDefector{}, Backstabber{}}
	seen := map[string]bool{}
	for _, b := range behaviors {
		if b.Name() == "" || seen[b.Name()] {
			t.Errorf("name %q empty or duplicate", b.Name())
		}
		seen[b.Name()] = true
	}
}

func TestRoleString(t *testing.T) {
	if RoleSupplier.String() != "supplier" || RoleConsumer.String() != "consumer" {
		t.Error("role labels")
	}
}

func TestNewPopulationCountsAndDefaults(t *testing.T) {
	cfg := PopConfig{Honest: 3, Rational: 2, Opportunist: 1, Random: 1, Backstabber: 1, Stake: 7 * goods.Unit}
	agents, err := NewPopulation(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(agents) != 8 {
		t.Fatalf("population size = %d, want 8", len(agents))
	}
	counts := map[string]int{}
	ids := map[string]bool{}
	for _, a := range agents {
		counts[a.Behavior.Name()]++
		if ids[string(a.ID)] {
			t.Errorf("duplicate ID %s", a.ID)
		}
		ids[string(a.ID)] = true
		if a.Stake != 7*goods.Unit {
			t.Errorf("agent %s stake = %v", a.ID, a.Stake)
		}
		if a.Policy == nil {
			t.Errorf("agent %s has nil policy", a.ID)
		}
	}
	if counts["honest"] != 3 || counts["rational"] != 2 || counts["opportunist"] != 1 ||
		counts["random"] != 1 || counts["backstabber"] != 1 {
		t.Errorf("behaviour counts = %v", counts)
	}
}

// TestAgentRecordIsOneCacheLine pins an Agent record at 64 bytes, one cache
// line: in a large population's backing array, which the allocator aligns to
// a page, reading an agent touches one line, not two.
func TestAgentRecordIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Agent{}); got != 64 {
		t.Errorf("an Agent is %d bytes, want 64", got)
	}
}

func TestNewPopulationLiarFraction(t *testing.T) {
	// A fraction outside [0, 1] must fail, not slice past the population.
	for _, frac := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := NewPopulation(PopConfig{Honest: 4, LiarFraction: frac}, rand.New(rand.NewSource(5))); err == nil {
			t.Errorf("liar fraction %v accepted", frac)
		}
	}
	if _, err := NewPopulation(PopConfig{Honest: 4, LiarFraction: 1}, rand.New(rand.NewSource(5))); err != nil {
		t.Errorf("liar fraction 1 rejected: %v", err)
	}
	cfg := PopConfig{Honest: 10, LiarFraction: 0.3}
	agents, err := NewPopulation(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	liars := 0
	for _, a := range agents {
		if a.LiesAsWitness {
			liars++
		}
	}
	if liars != 3 {
		t.Errorf("liars = %d, want 3", liars)
	}
}

func TestNewPopulationCustomPolicy(t *testing.T) {
	cfg := PopConfig{Honest: 2, Policy: func(i int) decision.Policy { return decision.Paranoid{} }}
	agents, err := NewPopulation(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		if _, ok := a.Policy.(decision.Paranoid); !ok {
			t.Errorf("agent %s policy = %T", a.ID, a.Policy)
		}
	}
}

// TestNewPopulationEmpty: no agents, or a negative count that would make
// Size disagree with the agents built, is rejected.
func TestNewPopulationEmpty(t *testing.T) {
	for _, cfg := range []PopConfig{{}, {Honest: 5, Backstabber: -3}, {Honest: -1, Rational: 2}} {
		if _, err := NewPopulation(cfg, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("population %+v accepted", cfg)
		}
	}
}

// TestNewPopulationNegativeStake: a negative stake is refused when the
// population is built, not when its first exchange is scheduled.
func TestNewPopulationNegativeStake(t *testing.T) {
	_, err := NewPopulation(PopConfig{Honest: 2, Stake: -1}, rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "negative stake") {
		t.Errorf("err = %v, want a negative-stake error", err)
	}
	if _, err := NewPopulation(PopConfig{Honest: 2}, rand.New(rand.NewSource(1))); err != nil {
		t.Errorf("zero stake rejected: %v", err)
	}
}

func TestIDs(t *testing.T) {
	agents, err := NewPopulation(PopConfig{Honest: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs(agents)
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Errorf("IDs = %v", ids)
	}
}
