package agent

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"trustcoop/internal/decision"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

// newPopulationReference is NewPopulation as it was before the shared
// backing array: one allocation per agent, each ID formatted with Sprintf
// and each Behavior boxed afresh. It is the oracle for every field.
func newPopulationReference(cfg PopConfig, rng *rand.Rand) ([]*Agent, error) {
	if min(cfg.Honest, cfg.Rational, cfg.Opportunist, cfg.Random, cfg.Backstabber) < 0 {
		return nil, fmt.Errorf("agent: negative behaviour count in %+v", cfg)
	}
	if !(cfg.LiarFraction >= 0 && cfg.LiarFraction <= 1) {
		return nil, fmt.Errorf("agent: liar fraction %v outside [0, 1]", cfg.LiarFraction)
	}
	if cfg.Stake < 0 {
		return nil, fmt.Errorf("agent: negative stake %v", cfg.Stake)
	}
	if cfg.Size() == 0 {
		return nil, fmt.Errorf("agent: empty population")
	}
	thr := cfg.OpportunistThreshold
	if thr == 0 {
		thr = 5 * goods.Unit
	}
	policy := cfg.Policy
	if policy == nil {
		policy = func(int) decision.Policy { return decision.RiskNeutral{} }
	}

	var agents []*Agent
	add := func(kind string, n int, mk func() Behavior) {
		for i := 0; i < n; i++ {
			id := trust.PeerID(fmt.Sprintf("%s%d", kind, i))
			agents = append(agents, &Agent{
				ID:       id,
				Behavior: mk(),
				Policy:   policy(len(agents)),
				Stake:    cfg.Stake,
			})
		}
	}
	add("honest", cfg.Honest, func() Behavior { return Honest{} })
	add("rational", cfg.Rational, func() Behavior { return Rational{} })
	add("opportunist", cfg.Opportunist, func() Behavior { return Opportunist{Threshold: thr} })
	add("random", cfg.Random, func() Behavior { return RandomDefector{P: randomDefectP} })
	add("backstabber", cfg.Backstabber, func() Behavior { return Backstabber{After: backstabAfter} })

	if cfg.LiarFraction > 0 {
		n := int(cfg.LiarFraction * float64(len(agents)))
		for _, idx := range rng.Perm(len(agents))[:n] {
			agents[idx].LiesAsWitness = true
		}
	}
	return agents, nil
}

// loggedPolicy is a Policy factory that records the index of every call and
// hands out a policy that depends on it.
type loggedPolicy struct{ calls []int }

func (l *loggedPolicy) policy(i int) decision.Policy {
	l.calls = append(l.calls, i)
	if i%2 == 0 {
		return decision.Paranoid{}
	}
	return decision.FixedCap{Cap: goods.Money(i)}
}

// TestNewPopulationMatchesReference draws random configs, kind counts from
// zero up across a power-of-ten boundary of the ID width, and checks that
// NewPopulation and the reference build the same agents field for field,
// call the policy factory with the same indices and mark the same liars.
func TestNewPopulationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	count := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1 + rng.Intn(9)
		default:
			return rng.Intn(130)
		}
	}
	for trial := range 300 {
		cfg := PopConfig{
			Honest: count(), Rational: count(), Opportunist: count(), Random: count(), Backstabber: count(),
			OpportunistThreshold: goods.Money(rng.Intn(3)) * goods.Unit,
			Stake:                goods.Money(rng.Intn(4)) * goods.Unit / 2,
			LiarFraction:         []float64{0, 0.3, 1}[rng.Intn(3)],
		}
		var got, want loggedPolicy
		if rng.Intn(2) == 0 {
			cfg.Policy = got.policy
		}
		seed := rng.Int63()
		agents, err := NewPopulation(cfg, rand.New(rand.NewSource(seed)))
		if cfg.Policy != nil {
			cfg.Policy = want.policy
		}
		ref, refErr := newPopulationReference(cfg, rand.New(rand.NewSource(seed)))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("trial %d %+v: error %v, reference %v", trial, cfg, err, refErr)
		}
		if len(agents) != len(ref) {
			t.Fatalf("trial %d %+v: %d agents, reference %d", trial, cfg, len(agents), len(ref))
		}
		for i := range ref {
			if !reflect.DeepEqual(agents[i], ref[i]) {
				t.Fatalf("trial %d %+v: agent %d = %+v, reference %+v", trial, cfg, i, *agents[i], *ref[i])
			}
		}
		if !slices.Equal(got.calls, want.calls) {
			t.Fatalf("trial %d: policy factory called with %v, reference %v", trial, got.calls, want.calls)
		}
	}
}

// TestNewPopulationAllocs pins NewPopulation's allocations per call to one
// constant, the same at 10³ and 10⁵ agents: the backing array, the pointer
// slice, the ID string, the three behaviours with a parameter (opportunist,
// random, backstabber), each boxed once, and the liar permutation.
func TestNewPopulationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const want = 7
	for _, n := range []int{1_000, 100_000} {
		cfg := PopConfig{Honest: n - n/5 - 2, Opportunist: n / 5, Random: 1, Backstabber: 1, LiarFraction: 0.1}
		rng := rand.New(rand.NewSource(1))
		got := testing.AllocsPerRun(3, func() {
			if _, err := NewPopulation(cfg, rng); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%d agents: %v allocations per call, want %d", n, got, want)
		}
	}
}

// TestDigitsBelow checks the ID string's exact size against formatting every
// rank, across the power-of-ten boundaries.
func TestDigitsBelow(t *testing.T) {
	want := 0
	for n := range 12_000 {
		if got := digitsBelow(n); got != want {
			t.Fatalf("digitsBelow(%d) = %d, want %d", n, got, want)
		}
		want += len(strconv.Itoa(n))
	}
}
