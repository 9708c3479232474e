package seedmix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeSeeds exercise every branch of the seed reduction: zero and its
// substitute, the modulus and its neighbours, negatives, and the extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, seedZero, lehmerM - 1, lehmerM, lehmerM + 1, -lehmerM, -lehmerM - 1,
	-(1 << 62), 1 << 62, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// sameStream draws n mixed values from got and want — every rand.Rand method
// the repository uses, so tap and feed wrap several times across both the
// Uint64 and Int63 paths — and reports the first divergence.
func sameStream(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 7 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Intn(1000+i), want.Intn(1000+i)
		case 3:
			g, w = got.Float64(), want.Float64()
		case 4:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 5:
			gp, wp := got.Perm(5), want.Perm(5)
			if !slices.Equal(gp, wp) {
				t.Fatalf("seed %d draw %d: Perm %v, want %v", seed, i, gp, wp)
			}
			continue
		case 6:
			g, w = got.Int63n(1<<40+int64(i)), want.Int63n(1<<40+int64(i))
		}
		if g != w {
			t.Fatalf("seed %d draw %d: %v, want %v", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := slices.Clone(edgeSeeds)
	for i := uint64(0); i < 300; i++ {
		seeds = append(seeds, Derive(77, i))
	}
	for _, seed := range seeds {
		sameStream(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)), 3*rngLen)
	}
}

// TestSourceReseed: reseeding a used source (as the market engine does with
// a finished session's stream) restarts it as a fresh math/rand source.
func TestSourceReseed(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		r.Int63()
	}
	for _, seed := range append([]int64{5, Derive(5, 1)}, edgeSeeds...) {
		r.Seed(seed)
		sameStream(t, seed, r, rand.New(rand.NewSource(seed)), 2*rngLen)
	}
}

// TestCookedTableIsSeedIndependent: the table init derived from seed 1,
// combined with another seed's Lehmer terms, is exactly the initial state
// math/rand builds for that seed — recovered here from its outputs.
func TestCookedTableIsSeedIndependent(t *testing.T) {
	for _, seed := range []int64{2, -7, Derive(42, 9)} {
		vec := initialState(rand.NewSource(seed).(rand.Source64))
		x0 := reduce(seed)
		for i := range vec {
			if got := lcgTerm(x0, i) ^ cooked[i]; got != vec[i] {
				t.Fatalf("seed %d word %d: %#x, want %#x", seed, i, got, vec[i])
			}
		}
	}
}

func FuzzSource(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(3*rngLen))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		sameStream(t, seed, NewRand(seed), rand.New(rand.NewSource(seed)), int(draws))
	})
}

var sink int64

// BenchmarkSeed* time building one session's stream and drawing from it:
// math/rand's eager 607-word seeding against the lazy Source, fresh and
// recycled through Rand.Seed as the market engine does.
func BenchmarkSeedMathRand(b *testing.B) {
	benchSeed(b, func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) })
}

func BenchmarkSeedSeedmix(b *testing.B) { benchSeed(b, NewRand) }

func BenchmarkSeedSeedmixRecycled(b *testing.B) {
	r := NewRand(0)
	benchSeed(b, func(seed int64) *rand.Rand { r.Seed(seed); return r })
}

func benchSeed(b *testing.B, seeded func(int64) *rand.Rand) {
	for _, draws := range []int{0, 40} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			var i int64
			for b.Loop() {
				i++
				r := seeded(Derive(1, uint64(i)))
				for range draws {
					sink += r.Int63()
				}
			}
		})
	}
}
