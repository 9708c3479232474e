package complaints

import (
	"fmt"
	"sync"
	"testing"

	"trustcoop/internal/trust"
)

func TestShardedStoreCounts(t *testing.T) {
	s := NewShardedStore(4)
	for _, c := range []Complaint{
		{From: "a", About: "b"},
		{From: "a", About: "c"},
		{From: "c", About: "b"},
	} {
		if err := s.File(c); err != nil {
			t.Fatal(err)
		}
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
	r, f, err := s.Counts("c")
	if err != nil || r != 1 || f != 1 {
		t.Errorf("Counts(c) = (%d, %d, %v), want (1, 1, nil)", r, f, err)
	}
}

func TestShardedStoreRoundsShardsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := len(NewShardedStore(tc.in).shards); got != tc.want {
			t.Errorf("NewShardedStore(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestShardedStoreMatchesMemoryStore replays the same complaint stream into
// both centralised stores: every count must agree, whatever shard each peer
// hashed to.
func TestShardedStoreMatchesMemoryStore(t *testing.T) {
	mem := NewMemoryStore()
	sh := NewShardedStore(8)
	var population []trust.PeerID
	for i := 0; i < 40; i++ {
		population = append(population, trust.PeerID(fmt.Sprintf("p%d", i)))
	}
	for k := 0; k < 2000; k++ {
		c := Complaint{From: population[k%len(population)], About: population[(k*7+3)%len(population)]}
		if err := mem.File(c); err != nil {
			t.Fatal(err)
		}
		if err := sh.File(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range population {
		mr, _ := mem.Received(p)
		mf, _ := mem.Filed(p)
		sr, sf, err := sh.Counts(p)
		if err != nil {
			t.Fatal(err)
		}
		if mr != sr || mf != sf {
			t.Errorf("%s: sharded (%d, %d) != memory (%d, %d)", p, sr, sf, mr, mf)
		}
	}
}

// TestShardedStoreConcurrent hammers File/Received/Filed from concurrent
// goroutines (run under -race in CI) and checks the totals.
func TestShardedStoreConcurrent(t *testing.T) {
	s := NewShardedStore(8)
	var population []trust.PeerID
	for i := 0; i < 32; i++ {
		population = append(population, trust.PeerID(fmt.Sprintf("p%d", i)))
	}
	const goroutines, ops = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				from := population[(g*7+i)%len(population)]
				about := population[(g*13+3*i)%len(population)]
				if err := s.File(Complaint{From: from, About: about}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Counts(about); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Received(from); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Filed(about); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var totalReceived, totalFiled int
	for _, p := range population {
		r, f, err := s.Counts(p)
		if err != nil {
			t.Fatal(err)
		}
		totalReceived += r
		totalFiled += f
	}
	if want := goroutines * ops; totalReceived != want || totalFiled != want {
		t.Errorf("totals (%d received, %d filed), want %d each", totalReceived, totalFiled, want)
	}
}

// TestShardedStoreAssessment reruns the cheater-detection scenario over the
// sharded store: the assessor must behave identically to the memory
// baseline.
func TestShardedStoreAssessment(t *testing.T) {
	sh := NewShardedStore(0)
	var population []trust.PeerID
	for i := 0; i < 20; i++ {
		population = append(population, trust.PeerID(fmt.Sprintf("h%d", i)))
	}
	cheater := trust.PeerID("crook")
	population = append(population, cheater)
	for _, p := range population[:20] {
		if err := sh.File(Complaint{From: p, About: cheater}); err != nil {
			t.Fatal(err)
		}
	}
	a := Assessor{Store: sh, Population: population}
	ok, err := a.Trustworthy(cheater)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("cheater classified trustworthy over the sharded store")
	}
	if ok, _ := a.Trustworthy(population[0]); !ok {
		t.Error("honest peer classified cheater over the sharded store")
	}
}
