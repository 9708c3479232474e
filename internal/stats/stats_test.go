package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	// Population std of this classic dataset is 2; sample variance = 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g, want %g", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Errorf("Sum = %g, want 40", s.Sum())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.Std() != 0 || s.CI95() != 0 {
		t.Errorf("empty sample should report zeros, got mean=%g var=%g", s.Mean(), s.Variance())
	}
	if !strings.Contains(s.String(), "n=0") {
		t.Errorf("String() = %q, want n=0 marker", s.String())
	}
}

func TestSampleSingle(t *testing.T) {
	var s Sample
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single observation mishandled: %+v", s)
	}
}

func TestSampleMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var whole, left, right Sample
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*10 + 3
		whole.Add(x)
		if i%2 == 0 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(right)
	if !almostEqual(left.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean %g != %g", left.Mean(), whole.Mean())
	}
	if !almostEqual(left.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance %g != %g", left.Variance(), whole.Variance())
	}
	if left.Count() != whole.Count() || left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Errorf("merged aggregates differ: %+v vs %+v", left, whole)
	}
}

func TestSampleMergeEmptyCases(t *testing.T) {
	var a, b Sample
	a.Merge(b) // empty into empty
	if a.Count() != 0 {
		t.Fatal("merge of empties should stay empty")
	}
	b.Add(7)
	a.Merge(b)
	if a.Count() != 1 || a.Mean() != 7 {
		t.Fatalf("merge into empty lost data: %+v", a)
	}
	var c Sample
	a.Merge(c) // empty into non-empty
	if a.Count() != 1 {
		t.Fatalf("merge of empty changed sample: %+v", a)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {-5, 15}, {120, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %g, want 0", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{1, 2}, 50); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("Percentile interpolation = %g, want 1.5", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestFitLinearRecoversLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 3, 1e-9) {
		t.Errorf("fit = %+v, want slope 2 intercept 3", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R2 = %g, want 1", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for constant x")
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 5 x^2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * x * x
	}
	k, c, r2, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(k, 2, 1e-9) || !almostEqual(c, 5, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("power fit k=%g c=%g r2=%g, want 2, 5, 1", k, c, r2)
	}
	if _, _, _, err := FitPowerLaw([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("want error for non-positive x")
	}
}

func TestMAE(t *testing.T) {
	mae, err := MAE([]float64{1, 2, 3}, []float64{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mae, 1, 1e-12) {
		t.Errorf("MAE = %g, want 1", mae)
	}
	if _, err := MAE([]float64{1}, nil); err == nil {
		t.Error("want MAE length error")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Bound magnitudes so the naive two-pass reference is itself accurate.
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		var s Sample
		for _, x := range xs {
			s.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return almostEqual(s.Mean(), mean, 1e-6) && almostEqual(s.Variance(), naiveVar, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
