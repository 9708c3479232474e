package stats

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// relErr is the relative error of got against a non-zero want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// distQuantileBound is the asserted worst-case relative quantile error:
// twice one bucket's relative width (2^(1/16) − 1 ≈ 4.4%), the doubling
// absorbing rank-convention differences at exact bucket boundaries. The
// documented per-bucket bound is the single width; random workloads below
// stay well inside even that.
var distQuantileBound = 2 * (math.Pow(2, 1.0/distSubBuckets) - 1)

func TestDistributionMomentsExact(t *testing.T) {
	var d Distribution
	var s Sample
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := math.Exp(rng.NormFloat64()*2 + 5) // lognormal latencies
		d.Add(x)
		s.Add(x)
	}
	if d.Count() != s.Count() || d.moments.Mean() != s.Mean() || d.moments.Std() != s.Std() ||
		d.moments.Min() != s.Min() || d.moments.Max() != s.Max() || d.Sum() != s.Sum() {
		t.Errorf("moments diverge from Sample: dist{n=%d mean=%v std=%v} sample{n=%d mean=%v std=%v}",
			d.Count(), d.moments.Mean(), d.moments.Std(), s.Count(), s.Mean(), s.Std())
	}
}

// TestDistributionEdgeConventions: the bucketed quantiles follow the same
// empty/single-element conventions as the exact slice helpers, so code can
// switch between the two paths without special cases.
func TestDistributionEdgeConventions(t *testing.T) {
	var d Distribution
	for _, p := range []float64{-5, 0, 50, 99.9, 100, 120} {
		if got := d.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%g) = %g, want 0 (the Percentile([]) convention)", p, got)
		}
	}
	if d.moments.Mean() != 0 || d.moments.Std() != 0 || d.Count() != 0 {
		t.Errorf("empty distribution should report zeros: mean=%v std=%v n=%d", d.moments.Mean(), d.moments.Std(), d.Count())
	}
	d.Add(137.5)
	for _, p := range []float64{-5, 0, 50, 99.9, 100, 120} {
		if got, want := d.Percentile(p), Percentile([]float64{137.5}, p); got != want {
			t.Errorf("single-element Percentile(%g) = %g, want exact %g", p, got, want)
		}
	}
}

// TestPercentileSortedEdges pins the unexported helper's own conventions:
// it must not rely on the exported wrapper's (former) pre-filtering.
func TestPercentileSortedEdges(t *testing.T) {
	if got := percentileSorted(nil, 50); got != 0 {
		t.Errorf("percentileSorted(nil) = %g, want 0", got)
	}
	if got := percentileSorted([]float64{}, 0); got != 0 {
		t.Errorf("percentileSorted([]) = %g, want 0", got)
	}
	for _, p := range []float64{-1, 0, 37, 100, 200} {
		if got := percentileSorted([]float64{42}, p); got != 42 {
			t.Errorf("percentileSorted([42], %g) = %g, want 42", p, got)
		}
	}
}

// TestDistributionQuantileErrorBound: on random workloads of very different
// shapes, every reported percentile stays within the documented relative
// error of the exact sample quantile, allowing one rank of slack around
// stats.Percentile — the bucketed walk targets rank p/100·n while the exact
// helper interpolates at p/100·(n−1), and in a sparse heavy tail adjacent
// order statistics can differ by more than one bucket width, so the honest
// bound is "within a bucket of the exact order-statistic band", not "within
// a bucket of one specific interpolation convention".
func TestDistributionQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name string
		gen  func() float64
	}{
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64()*1.5 + 6) }},
		{"uniform_wide", func() float64 { return rng.Float64() * 1e9 }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 5e4 }},
		{"bimodal", func() float64 {
			if rng.Intn(10) == 0 {
				return 1e6 + rng.Float64()*1e6 // the slow tail
			}
			return 50 + rng.Float64()*100
		}},
	}
	ps := []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9}
	for _, shape := range shapes {
		for trial := 0; trial < 3; trial++ {
			n := 200 + rng.Intn(5000)
			xs := make([]float64, n)
			var d Distribution
			for i := range xs {
				xs[i] = shape.gen()
				d.Add(xs[i])
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			clampIdx := func(i int) int {
				if i < 0 {
					return 0
				}
				if i >= n {
					return n - 1
				}
				return i
			}
			for _, p := range ps {
				exact := Percentile(xs, p)
				got := d.Percentile(p)
				// The exact band: stats.Percentile's value widened by one
				// order statistic on each side of the bucketed target rank.
				idx := int(math.Ceil(p/100*float64(n))) - 1
				bandLo := math.Min(exact, sorted[clampIdx(idx-1)])
				bandHi := math.Max(exact, sorted[clampIdx(idx+1)])
				// One bucket of relative error around the band, plus 1 of
				// absolute slack for the underflow range.
				lo := bandLo*(1-distQuantileBound) - 1
				hi := bandHi*(1+distQuantileBound) + 1
				if got < lo || got > hi {
					t.Errorf("%s n=%d p%g: bucketed %g outside [%g, %g] (exact %g, band [%g, %g])",
						shape.name, n, p, got, lo, hi, exact, bandLo, bandHi)
				}
				// Mid percentiles of dense regions should also sit within
				// the plain relative bound of stats.Percentile itself.
				if p >= 25 && p <= 75 && exact >= 1 && relErr(got, exact) > distQuantileBound {
					t.Errorf("%s n=%d p%g: bucketed %g vs exact %g (rel err %.4f > %.4f)",
						shape.name, n, p, got, exact, relErr(got, exact), distQuantileBound)
				}
			}
		}
	}
}

// TestDistributionPercentilesMonotone: p50 ≤ p95 ≤ p99 ≤ p999 by
// construction — the property the bench artifact guard enforces on
// committed JSON.
func TestDistributionPercentilesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var d Distribution
	for i := 0; i < 3000; i++ {
		d.Add(math.Exp(rng.NormFloat64() * 3))
	}
	ps := []float64{0, 25, 50, 90, 95, 99, 99.9, 100}
	prev := math.Inf(-1)
	for _, p := range ps {
		v := d.Percentile(p)
		if v < prev {
			t.Errorf("Percentile(%g) = %g < Percentile at lower p = %g", p, v, prev)
		}
		prev = v
	}
	if d.Percentile(0) != d.moments.Min() || d.Percentile(100) != d.moments.Max() {
		t.Errorf("p0/p100 = %g/%g, want exact Min/Max %g/%g", d.Percentile(0), d.Percentile(100), d.moments.Min(), d.moments.Max())
	}
	if m := d.moments.Mean(); m < d.moments.Min() || m > d.moments.Max() {
		t.Errorf("mean %g outside [min, max] = [%g, %g]", m, d.moments.Min(), d.moments.Max())
	}
}

// TestDistributionUnderflowAndOverflow: sub-1 values (zero and negatives
// included) land in the underflow bucket; values at and above the 2^48 top
// boundary clamp into the top bucket with quantiles capped at Max.
func TestDistributionUnderflowAndOverflow(t *testing.T) {
	var d Distribution
	for _, x := range []float64{-3, 0, 0.25, 0.99} {
		d.Add(x)
	}
	if got := d.Percentile(50); got < -3 || got >= 1 {
		t.Errorf("underflow p50 = %g, want within [-3, 1)", got)
	}
	var big Distribution
	top := math.Ldexp(1, distOctaves)
	big.Add(top * 4)
	big.Add(top * 8)
	if got, want := big.Percentile(99), big.moments.Max(); got > want {
		t.Errorf("overflow p99 = %g exceeds observed max %g", got, want)
	}
	if got := big.Percentile(99); got < top*4 {
		t.Errorf("overflow p99 = %g below observed min %g (clamp lost)", got, top*4)
	}
	if idx := distBucketIndex(math.NaN()); idx != 0 {
		t.Errorf("NaN bucket = %d, want the underflow bucket", idx)
	}
}

func randomDistribution(rng *rand.Rand, n int) Distribution {
	var d Distribution
	for i := 0; i < n; i++ {
		d.Add(math.Exp(rng.NormFloat64()*2 + float64(rng.Intn(8))))
	}
	return d
}

// distEquiv compares two distributions the way sampleEquiv compares Samples:
// bucket counts exactly (integer sums are exactly associative), moments to
// the float-reassociation tolerance.
func distEquiv(t *testing.T, label string, a, b Distribution) {
	t.Helper()
	sampleEquiv(t, label, a.moments, b.moments)
	for i := range a.counts {
		av, bv := int64(0), int64(0)
		if a.counts != nil {
			av = a.counts[i]
		}
		if b.counts != nil {
			bv = b.counts[i]
		}
		if av != bv {
			t.Errorf("%s: bucket %d count %d != %d", label, i, av, bv)
			return
		}
	}
	if (a.counts == nil) != (b.counts == nil) && a.Count() != 0 {
		t.Errorf("%s: one side has no buckets", label)
	}
}

// TestDistributionMergeOfSplitsEqualsWhole mirrors
// TestSampleMergeOfSplitsEqualsWhole: a stream split anywhere and merged
// reproduces the whole-stream accumulator — what eval's exchange-latency
// column relies on when it merges per-trial latency distributions.
func TestDistributionMergeOfSplitsEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*2 + 4)
	}
	var whole Distribution
	for _, x := range xs {
		whole.Add(x)
	}
	for _, cut := range []int{0, 1, 64, 128, 256, len(xs)} {
		var lo, hi Distribution
		for _, x := range xs[:cut] {
			lo.Add(x)
		}
		for _, x := range xs[cut:] {
			hi.Add(x)
		}
		lo.Merge(hi)
		distEquiv(t, "cut="+strconv.Itoa(cut), lo, whole)
		for _, p := range []float64{50, 95, 99, 99.9} {
			if got, want := lo.Percentile(p), whole.Percentile(p); got != want {
				t.Errorf("cut=%d: merged p%g = %g, whole %g (bucket merge should be exact)", cut, p, got, want)
			}
		}
	}
}

func TestDistributionMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		a1, b1 := randomDistribution(rng, rng.Intn(60)), randomDistribution(rng, rng.Intn(60))
		a2, b2 := a1.Clone(), b1.Clone()
		a1.Merge(b1)
		b2.Merge(a2)
		distEquiv(t, "commutativity", a1, b2)
	}
}

func TestDistributionMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		a, b, c := randomDistribution(rng, rng.Intn(50)), randomDistribution(rng, rng.Intn(50)), randomDistribution(rng, rng.Intn(50))
		left := a.Clone()
		left.Merge(b)
		left.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		right := a.Clone()
		right.Merge(bc)
		distEquiv(t, "associativity", left, right)
	}
}

// TestDistributionMergeEmptyIsIdentity: empty shards are invisible in the
// reduction, in either direction.
func TestDistributionMergeEmptyIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := randomDistribution(rng, 23)
	orig := s.Clone()
	s.Merge(Distribution{})
	distEquiv(t, "merge empty into s", s, orig)
	var empty Distribution
	empty.Merge(orig)
	distEquiv(t, "merge s into empty", empty, orig)
}

// TestDistributionCloneIndependent: mutating a clone must not leak into the
// original — the /metrics exporter summarises clones outside the lock.
func TestDistributionCloneIndependent(t *testing.T) {
	var d Distribution
	d.Add(100)
	c := d.Clone()
	c.Add(1e6)
	if d.Count() != 1 || d.moments.Max() != 100 {
		t.Errorf("clone mutation leaked into original: %+v", d)
	}
	if c.Count() != 2 {
		t.Errorf("clone lost its own write: %+v", c)
	}
}

// TestDistributionBucketLadder sanity-checks the layout: boundaries ascend,
// each value's bucket contains it, and relative widths match the documented
// 2^(1/16) growth.
func TestDistributionBucketLadder(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < distBuckets; i++ {
		lo, hi := distBucketRange(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo %g != previous hi %g", i, lo, prevHi)
		}
		if !(hi > lo) {
			t.Fatalf("bucket %d: empty range [%g, %g)", i, lo, hi)
		}
		prevHi = hi
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 2000; trial++ {
		x := math.Exp(rng.Float64()*30 - 2)
		i := distBucketIndex(x)
		lo, hi := distBucketRange(i)
		if i == distBuckets-1 && x >= hi {
			continue // overflow clamps into the top bucket by design
		}
		if x < lo || x >= hi {
			t.Fatalf("x=%g bucketed into %d = [%g, %g)", x, i, lo, hi)
		}
	}
}
