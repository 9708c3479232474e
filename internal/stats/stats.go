// Package stats is a small, dependency-free statistics toolkit used by the
// experiment harness: streaming moments, percentiles, latency
// distributions, inequality measures and prediction error.
//
// Every accumulator is a plain value type whose zero value is ready to use.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations with Welford's online algorithm so that
// mean and variance stay numerically stable regardless of magnitude.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add records a single observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds other into s, as if every observation of other had been Added.
func (s *Sample) Merge(other Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += other.m2 + delta*delta*n1*n2/tot
	s.sum += other.sum
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Count reports the number of observations.
func (s *Sample) Count() int { return s.n }

// Sum reports the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 when empty.
func (s *Sample) Mean() float64 { return s.mean }

// Min reports the smallest observation, or 0 when empty.
func (s *Sample) Min() float64 { return s.min }

// Max reports the largest observation, or 0 when empty.
func (s *Sample) Max() float64 { return s.max }

// Variance reports the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std reports the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Variance()) }

// StdErr reports the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 reports the half-width of the normal-approximation 95% confidence
// interval around the mean.
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// String summarises the sample as "mean ± ci95 (n=…)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. The input is not modified.
//
// Edge conventions — shared with Distribution.Percentile so the bucketed and
// exact quantile paths always agree: an empty slice reports 0, a
// single-element slice reports that element for every p, and out-of-range p
// clamps (p ≤ 0 reports the minimum, p ≥ 100 the maximum).
func Percentile(xs []float64, p float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile over an already-sorted slice. It applies
// the same edge conventions itself (empty → 0, single element → that
// element, out-of-range p clamps) rather than trusting every caller to
// pre-filter — the exported wrapper is not its only caller.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// MAE returns the mean absolute error between paired predictions and truths.
// It returns an error when the slices differ in length.
func MAE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("mae: length mismatch %d vs %d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(pred)), nil
}
