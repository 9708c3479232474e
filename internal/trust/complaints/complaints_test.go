package complaints

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trustcoop/internal/trust"
)

// cheaterScenario simulates the CIKM-2001 setting: honest peers complain
// about cheaters that cheated them; cheaters retaliate with random fake
// complaints. Returns the store and the population split.
func cheaterScenario(t *testing.T, rng *rand.Rand, honest, cheaters, interactions int) (*MemoryStore, []trust.PeerID, map[trust.PeerID]bool) {
	t.Helper()
	store := NewMemoryStore()
	var population []trust.PeerID
	isCheater := make(map[trust.PeerID]bool)
	for i := 0; i < honest; i++ {
		population = append(population, trust.PeerID(fmt.Sprintf("h%d", i)))
	}
	for i := 0; i < cheaters; i++ {
		id := trust.PeerID(fmt.Sprintf("c%d", i))
		population = append(population, id)
		isCheater[id] = true
	}
	for k := 0; k < interactions; k++ {
		a := population[rng.Intn(len(population))]
		b := population[rng.Intn(len(population))]
		if a == b {
			continue
		}
		// A cheater cheats every partner; the victim complains. Cheaters
		// also file a retaliatory fake complaint half the time.
		if isCheater[b] {
			if err := store.File(Complaint{From: a, About: b}); err != nil {
				t.Fatal(err)
			}
		}
		if isCheater[a] && rng.Intn(2) == 0 {
			if err := store.File(Complaint{From: a, About: b}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store, population, isCheater
}

func TestMemoryStoreCounts(t *testing.T) {
	s := NewMemoryStore()
	if err := s.File(Complaint{From: "a", About: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.File(Complaint{From: "a", About: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := s.File(Complaint{From: "c", About: "b"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Received("b"); got != 2 {
		t.Errorf("Received(b) = %d, want 2", got)
	}
	if got, _ := s.Filed("a"); got != 2 {
		t.Errorf("Filed(a) = %d, want 2", got)
	}
	if got, _ := s.Received("a"); got != 0 {
		t.Errorf("Received(a) = %d, want 0", got)
	}
}

func TestCheaterDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	store, population, isCheater := cheaterScenario(t, rng, 45, 5, 4000)
	a := Assessor{Store: store, Population: population}
	var falseNeg, falsePos int
	for _, p := range population {
		ok, err := a.Trustworthy(p)
		if err != nil {
			t.Fatal(err)
		}
		if isCheater[p] && ok {
			falseNeg++
		}
		if !isCheater[p] && !ok {
			falsePos++
		}
	}
	if falseNeg > 0 {
		t.Errorf("%d cheaters classified trustworthy", falseNeg)
	}
	if falsePos > 2 {
		t.Errorf("%d honest peers classified cheaters", falsePos)
	}
}

func TestSortByScoreRanksCheatersFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	store, population, isCheater := cheaterScenario(t, rng, 30, 3, 3000)
	a := Assessor{Store: store, Population: population}
	ranked, err := a.SortByScore(population)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !isCheater[ranked[i]] {
			t.Errorf("rank %d is %s, want a cheater in the top 3", i, ranked[i])
		}
	}
}

func TestProbabilityBridge(t *testing.T) {
	store := NewMemoryStore()
	pop := []trust.PeerID{"a", "b"}
	a := Assessor{Store: store, Population: pop}
	// With no complaints everyone scores the average: p = 4/(4+1) = 0.8.
	p, err := a.Probability("a")
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.8 {
		t.Errorf("clean-slate probability = %g, want 0.8", p)
	}
	// Pile complaints on b: probability must fall below a's.
	for i := 0; i < 20; i++ {
		if err := store.File(Complaint{From: trust.PeerID(fmt.Sprintf("v%d", i)), About: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	pa, _ := a.Probability("a")
	pb, _ := a.Probability("b")
	if pb >= pa {
		t.Errorf("complained-about peer probability %g not below clean peer %g", pb, pa)
	}
	// The decision threshold maps to 0.5.
	if ok, _ := a.Trustworthy("b"); ok {
		if pb < 0.5 {
			t.Errorf("trustworthy peer with probability %g < 0.5", pb)
		}
	} else if pb > 0.5 {
		t.Errorf("untrustworthy peer with probability %g > 0.5", pb)
	}
}

func TestEstimatorAdapter(t *testing.T) {
	store := NewMemoryStore()
	pop := []trust.PeerID{"observer", "good", "bad"}
	est := &Estimator{Assessor: Assessor{Store: store, Population: pop}, Observer: "observer"}
	// Cooperations leave no trace; defections file complaints.
	est.Record("good", trust.Outcome{Cooperated: true})
	if got, _ := store.Filed("observer"); got != 0 {
		t.Errorf("cooperation filed a complaint")
	}
	for i := 0; i < 10; i++ {
		est.Record("bad", trust.Outcome{Cooperated: false})
	}
	if got, _ := store.Received("bad"); got != 10 {
		t.Errorf("Received(bad) = %d, want 10", got)
	}
	eg := est.Estimate("good")
	eb := est.Estimate("bad")
	if eb.P >= eg.P {
		t.Errorf("bad peer estimate %g not below good peer %g", eb.P, eg.P)
	}
	if eb.Samples == 0 {
		t.Error("bad peer should have evidence")
	}
}

func TestAssessorDefaults(t *testing.T) {
	a := Assessor{Store: NewMemoryStore()}
	if a.factor() != DefaultFactor {
		t.Errorf("factor = %g, want DefaultFactor", a.factor())
	}
	// Empty population: average defaults to 1.
	s, err := a.NormalisedScore("x")
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("score with empty population = %g, want product/1 = 1", s)
	}
}

func TestMemoryStoreConcurrent(t *testing.T) {
	s := NewMemoryStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = s.File(Complaint{From: "a", About: "b"})
			}
		}()
	}
	wg.Wait()
	if got, _ := s.Received("b"); got != 4000 {
		t.Errorf("Received = %d, want 4000", got)
	}
}

// faultyStore exercises the error paths of the assessor.
type faultyStore struct{ err error }

func (f faultyStore) File(Complaint) error               { return f.err }
func (f faultyStore) Received(trust.PeerID) (int, error) { return 0, f.err }
func (f faultyStore) Filed(trust.PeerID) (int, error)    { return 0, f.err }

func TestAssessorPropagatesStoreErrors(t *testing.T) {
	a := Assessor{Store: faultyStore{err: fmt.Errorf("routing broke")}, Population: []trust.PeerID{"x"}}
	if _, err := a.Product("x"); err == nil {
		t.Error("Product swallowed the store error")
	}
	if _, err := a.NormalisedScore("x"); err == nil {
		t.Error("NormalisedScore swallowed the store error")
	}
	if _, err := a.Trustworthy("x"); err == nil {
		t.Error("Trustworthy swallowed the store error")
	}
	if _, err := a.SortByScore([]trust.PeerID{"x"}); err == nil {
		t.Error("SortByScore swallowed the store error")
	}
	est := &Estimator{Assessor: a, Observer: "o"}
	if e := est.Estimate("x"); e.P != 0.5 {
		t.Errorf("estimate on faulty store = %g, want neutral 0.5", e.P)
	}
}
