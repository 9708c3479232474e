package exchange

import (
	"errors"
	"math/rand"
	"testing"

	"trustcoop/internal/goods"
)

// TestScheduleFastPathAllocs locks in the allocation budget of the scheduler
// hot path: on an all-non-negative-surplus bundle the first candidate order
// is provably optimal, so a Schedule call resolves without the exact search
// and must stay within a small constant number of allocations (the returned
// plan itself plus pool-warmup noise). The seed implementation spent ~47
// allocations per call here; pooling the scratch buffers brought it to ~4,
// and pooling the validation dedup set (goods.Bundle.Validate) leaves ~1 —
// the returned plan's Sequence, which escapes to the caller and cannot be
// recycled.
//
// The failure path is pinned too, since the trust-aware planner takes it in
// nearly every session: ScheduleSafe at zero stakes on a positive-cost bundle
// (the isolated exchange, refuted by the last-delivery boundary) and a
// ScheduleTrustAware call one unit under the minimal caps (refuted by the
// optimal greedy order) each allocate at most their error: no
// per-order message is formatted only to be discarded.
func TestScheduleFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is only meaningful unraced")
	}
	rng := rand.New(rand.NewSource(3))
	gen := goods.DefaultGenConfig() // positive margins: every surplus ≥ 0
	gen.Items = 64
	bundle, err := goods.Generate(gen, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range bundle.Items {
		if it.Surplus() < 0 || it.Cost <= 0 {
			t.Fatalf("generator produced a negative-surplus or free item %+v", it)
		}
	}
	terms := Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
	stake := MinimalStake(terms)
	caps := ExposureCaps{Supplier: MinimalExposure(terms), Consumer: MinimalExposure(terms)}
	tooTight := ExposureCaps{Supplier: caps.Supplier - 1, Consumer: caps.Consumer - 1}

	warm := func() {
		if _, err := ScheduleSafe(terms, Stakes{Supplier: stake}, Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := ScheduleTrustAware(terms, caps, Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := ScheduleSafe(terms, Stakes{}, Options{}); !errors.Is(err, ErrNoSafeSequence) {
			t.Fatalf("zero-stake ScheduleSafe: err = %v, want ErrNoSafeSequence", err)
		}
		if _, err := ScheduleTrustAware(terms, tooTight, Options{}); !errors.Is(err, ErrNoFeasibleSequence) {
			t.Fatalf("ScheduleTrustAware under minimal caps: err = %v, want ErrNoFeasibleSequence", err)
		}
	}
	warm() // populate the scratch pool before measuring

	const maxAllocs = 2
	if got := testing.AllocsPerRun(100, func() {
		if _, err := ScheduleSafe(terms, Stakes{Supplier: stake}, Options{}); err != nil {
			t.Error(err)
		}
	}); got > maxAllocs {
		t.Errorf("ScheduleSafe fast path: %.1f allocs/op, budget %d", got, maxAllocs)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := ScheduleTrustAware(terms, caps, Options{}); err != nil {
			t.Error(err)
		}
	}); got > maxAllocs {
		t.Errorf("ScheduleTrustAware fast path: %.1f allocs/op, budget %d", got, maxAllocs)
	}

	const maxFailAllocs = 1
	if got := testing.AllocsPerRun(100, func() {
		if _, err := ScheduleSafe(terms, Stakes{}, Options{}); err == nil {
			t.Error("zero-stake ScheduleSafe succeeded")
		}
	}); got > maxFailAllocs {
		t.Errorf("ScheduleSafe failure path: %.1f allocs/op, budget %d", got, maxFailAllocs)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := ScheduleTrustAware(terms, tooTight, Options{}); err == nil {
			t.Error("ScheduleTrustAware under minimal caps succeeded")
		}
	}); got > maxFailAllocs {
		t.Errorf("ScheduleTrustAware failure path: %.1f allocs/op, budget %d", got, maxFailAllocs)
	}
}
