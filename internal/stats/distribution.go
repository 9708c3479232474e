package stats

import (
	"math"
	"sort"
)

// Distribution accumulates observations into log-spaced buckets so that
// quantiles of heavy-tailed data — latencies, above all — can be reported
// with a bounded *relative* error at any scale, next to an exact count and
// sum. It is the percentile-grade counterpart of Sample: the trustd metrics
// plane keeps live Distributions behind /metrics.
//
// Layout. Values in [1, 2^48) are bucketed geometrically with
// distSubBuckets = 16 buckets per octave, i.e. a growth factor of
// g = 2^(1/16) ≈ 1.0443 per bucket; values below 1 (including zero,
// negatives and NaN) land in a single underflow bucket spanning [0, 1); and
// values at or above 2^48 (about 3.3 days in nanoseconds) clamp into the top
// bucket. The layout is fixed at compile time.
//
// Accuracy. Percentile walks the cumulative bucket counts and interpolates
// linearly inside the selected bucket, then clamps the result to the exact
// observed [Min, Max]. The returned quantile therefore lies within one
// bucket of the exact sample quantile: the worst-case relative error is one
// bucket's relative width, g − 1 = 2^(1/16) − 1 ≈ 4.4%, for values ≥ 1
// (TestDistributionQuantileErrorBound pins twice that to absorb
// rank-convention differences at exact bucket boundaries). Underflow values
// carry an absolute error below 1 instead, and values clamped into the top
// bucket are reported no higher than the observed Max. Sum and Count are
// exact (via an embedded Sample), not bucketed.
//
// The zero value is ready to use.
type Distribution struct {
	moments Sample
	counts  []int64 // nil until the first Add; length distBuckets after
}

const (
	// distSubBuckets buckets per octave: relative bucket width 2^(1/16)−1.
	distSubBuckets = 16
	// distOctaves octaves above 1: the top boundary is 2^48.
	distOctaves = 48
	// distBuckets = 1 underflow bucket + the geometric ladder.
	distBuckets = 1 + distOctaves*distSubBuckets
)

// distSubBounds[i] is the mantissa threshold of sub-bucket i within an
// octave, expressed in math.Frexp's [0.5, 1) normalisation: 2^(i/16 − 1).
// Computed once; every Add after that is pure comparisons, so bucket
// placement is deterministic.
var distSubBounds = func() [distSubBuckets]float64 {
	var b [distSubBuckets]float64
	for i := range b {
		b[i] = math.Pow(2, float64(i)/distSubBuckets-1)
	}
	return b
}()

// distBucketIndex places x on the fixed ladder.
func distBucketIndex(x float64) int {
	if !(x >= 1) {
		// Zero, negatives, sub-1 values and NaN: the underflow bucket.
		return 0
	}
	frac, exp := math.Frexp(x) // x = frac·2^exp, frac ∈ [0.5, 1)
	oct := exp - 1             // x ∈ [2^oct, 2^(oct+1))
	if oct >= distOctaves {
		return distBuckets - 1
	}
	// Largest sub-bound ≤ frac; bound[0] = 0.5 always qualifies.
	sub := sort.SearchFloat64s(distSubBounds[:], frac)
	if sub == distSubBuckets || distSubBounds[sub] > frac {
		sub--
	}
	return 1 + oct*distSubBuckets + sub
}

// distBucketRange is the [lo, hi) interval bucket i covers.
func distBucketRange(i int) (lo, hi float64) {
	bound := func(j int) float64 {
		if j <= 0 {
			return 0
		}
		if j >= distBuckets {
			return math.Ldexp(1, distOctaves)
		}
		oct, sub := (j-1)/distSubBuckets, (j-1)%distSubBuckets
		return math.Ldexp(distSubBounds[sub], oct+1)
	}
	return bound(i), bound(i + 1)
}

// Add records a single observation.
func (d *Distribution) Add(x float64) {
	d.moments.Add(x)
	if d.counts == nil {
		d.counts = make([]int64, distBuckets)
	}
	d.counts[distBucketIndex(x)]++
}

// Clone returns an independent deep copy — the snapshot a concurrent reader
// (the /metrics exporter) summarises without holding the writer's lock.
func (d *Distribution) Clone() Distribution {
	out := Distribution{moments: d.moments}
	if d.counts != nil {
		out.counts = make([]int64, len(d.counts))
		copy(out.counts, d.counts)
	}
	return out
}

// Count reports the number of observations.
func (d *Distribution) Count() int { return d.moments.Count() }

// Sum reports the exact total of all observations.
func (d *Distribution) Sum() float64 { return d.moments.Sum() }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100; out-of-range values
// clamp, matching Percentile on raw slices). Conventions mirror the slice
// helpers: an empty distribution reports 0, a single observation is reported
// exactly for every p (the [Min, Max] clamp collapses to it), p = 0 reports
// Min and p = 100 reports Max. Everything in between carries the bucketed
// error bound documented on the type.
func (d *Distribution) Percentile(p float64) float64 {
	n := d.moments.Count()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := p / 100 * float64(n)
	cum := 0.0
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= target {
			lo, hi := distBucketRange(i)
			frac := (target - cum) / fc
			if frac < 0 {
				frac = 0
			}
			return d.clamp(lo + (hi-lo)*frac)
		}
		cum += fc
	}
	return d.moments.Max()
}

// clamp bounds a bucket-interpolated value by the exact observed extremes.
func (d *Distribution) clamp(v float64) float64 {
	if v < d.moments.Min() {
		return d.moments.Min()
	}
	if v > d.moments.Max() {
		return d.moments.Max()
	}
	return v
}
