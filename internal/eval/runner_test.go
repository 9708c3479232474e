package eval

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"trustcoop/internal/testutil"
)

func TestRunTrialsIndexedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := RunTrials(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: %d results, want 50", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunTrialsEmpty(t *testing.T) {
	out, err := RunTrials(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Errorf("empty run: out=%v err=%v", out, err)
	}
}

// TestRunTrialsPropagatesErrorAndStops: the first error stops the pool. Each
// passing trial sleeps 100µs, so the other three workers need ≥ 0.3 s to
// drain the pool; the failing worker only has to be scheduled once in that
// time, however the host interleaves the goroutines.
func TestRunTrialsPropagatesErrorAndStops(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := RunTrials(4, 10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 5 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Errorf("error did not stop the pool: %d trials ran", n)
	}
}

func TestRunTrialsMoreWorkersThanTrials(t *testing.T) {
	out, err := RunTrials(64, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestDeriveSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("base seed ignored")
	}
}

// tableVariant renders one experiment regeneration as a testutil.Variant.
func tableVariant(name, id string, rc RunConfig) testutil.Variant {
	return testutil.Variant{
		Name: name,
		Run:  testutil.Render(func() (*Table, error) { return Run(id, rc) }),
	}
}

// TestTablesIdenticalAcrossWorkerCounts is the headline determinism
// guarantee of the sharded runner: every experiment renders byte-identical
// tables whether its trials run on one worker or many. E5 is exempt — it
// measures wall-clock time.
func TestTablesIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, id := range IDs() {
		if id == "E5" {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			testutil.ByteIdentical(t,
				tableVariant("workers=1", id, RunConfig{Seed: 11, Quick: true, Workers: 1}),
				tableVariant("workers=2", id, RunConfig{Seed: 11, Quick: true, Workers: 2}),
				tableVariant("workers=7", id, RunConfig{Seed: 11, Quick: true, Workers: 7}),
			)
		})
	}
}

// TestTablesIdenticalAcrossEnginesPerCell is the cell-sharding determinism
// guarantee: EnginesPerCell only changes how many of a cell's fixed
// sub-engines run concurrently, so every experiment's table — sharded cells
// (E2, E3, E6) and unsharded ones alike — is byte-identical for
// EnginesPerCell ∈ {1, 2, 4} at a fixed seed. E5 is exempt as always (it
// measures wall-clock time).
func TestTablesIdenticalAcrossEnginesPerCell(t *testing.T) {
	for _, id := range IDs() {
		if id == "E5" {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			testutil.ByteIdentical(t,
				tableVariant("engines=1", id, RunConfig{Seed: 13, Quick: true, EnginesPerCell: 1}),
				tableVariant("engines=2", id, RunConfig{Seed: 13, Quick: true, EnginesPerCell: 2}),
				tableVariant("engines=4", id, RunConfig{Seed: 13, Quick: true, EnginesPerCell: 4}),
			)
		})
	}
}

// TestTablesIdenticalAcrossEnginesPerCellWithGossip repeats the cell-sharding
// determinism guarantee with cross-shard gossip switched on: the lockstep
// exchange runs on the coordinating goroutine between windows, so even a
// gossiping cell's table — E11's sweep and the gossip-enabled E2/E3/E6
// included — is byte-identical for every EnginesPerCell. E5 is exempt as
// always (it measures wall-clock time).
func TestTablesIdenticalAcrossEnginesPerCellWithGossip(t *testing.T) {
	for _, id := range IDs() {
		if id == "E5" {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rc := func(engines int) RunConfig {
				return RunConfig{Seed: 19, Quick: true, EnginesPerCell: engines, Gossip: "4:mesh"}
			}
			testutil.ByteIdentical(t,
				tableVariant("engines=1", id, rc(1)),
				tableVariant("engines=2", id, rc(2)),
				tableVariant("engines=4", id, rc(4)),
			)
		})
	}
}

func BenchmarkRunTrialsOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunTrials(workers, 64, func(i int) (int, error) { return i, nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
