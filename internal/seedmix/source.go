package seedmix

import "math/rand"

// The constants of math/rand's additive lagged Fibonacci generator and of
// the Lehmer generator (x ← 48271·x mod 2³¹−1) that seeds it.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerM  = 1<<31 - 1
	lehmerA  = 48271
	seedZero = 89482311 // what rngSource.Seed substitutes for a zero seed
)

var (
	// lcgMul[3i+j] = A^(21+3i+j) mod M: the multipliers taking a reduced
	// seed x0 to the three Lehmer states math/rand folds into state word i.
	lcgMul [3 * rngLen]uint64
	// cooked is math/rand's rngCooked table, derived at init from the
	// stream of rand.NewSource(1) rather than copied.
	cooked [rngLen]uint64
)

func init() {
	m := uint64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		m = m * lehmerA % lehmerM
		if k > 20 {
			lcgMul[k-21] = m
		}
	}
	vec := initialState(rand.NewSource(1).(rand.Source64))
	for i := range vec {
		cooked[i] = vec[i] ^ lcgTerm(1, i)
	}
}

// initialState recovers the state words a fresh math/rand source was seeded
// with from its first 607 outputs. Draw k (1-based) adds words feed = 334−k
// and tap = 607−k (mod 607) and writes the sum back at feed. Draws 274–607
// read a tap that draw k−273 wrote, which yields words 0–60 and 334–606;
// draws 1–273 read two untouched words, which then yields 61–333.
func initialState(src rand.Source64) (vec [rngLen]uint64) {
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	for k := 274; k <= rngLen; k++ {
		vec[(rngLen+334-k)%rngLen] = out[k] - out[k-273]
	}
	for k := 1; k <= 273; k++ {
		vec[334-k] = out[k] - vec[rngLen-k]
	}
	return vec
}

// mulmod returns x·m mod 2³¹−1 for x, m in [1, 2³¹−2].
func mulmod(x, m uint64) uint64 {
	p := x * m
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// lcgTerm is the Lehmer part of state word i for reduced seed x0.
func lcgTerm(x0 uint64, i int) uint64 {
	return mulmod(x0, lcgMul[3*i])<<40 ^ mulmod(x0, lcgMul[3*i+1])<<20 ^ mulmod(x0, lcgMul[3*i+2])
}

// Source is a rand.Source64 whose stream is exactly that of
// rand.NewSource(seed), but whose Seed costs O(1) instead of 1,841 serial
// Lehmer steps: each of the 607 state words has a closed form in the seed
// and is computed the first time the generator touches it. A stream that
// draws a few dozen values pays for a few dozen words.
type Source struct {
	vec       [rngLen]uint64
	have      [(rngLen + 63) / 64]uint64 // bit i: vec[i] holds its seeded value
	tap, feed int
	x0        uint64 // reduce(seed)
}

// NewRand returns a *rand.Rand over a Source, drawing the stream of
// rand.NewSource(seed). Its Seed method reseeds the Source in O(1).
func NewRand(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed resets the generator to the stream of rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	s.x0 = reduce(seed)
	s.have = [len(s.have)]uint64{}
}

// reduce maps a seed to the Lehmer start state exactly as rngSource.Seed does.
func reduce(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = seedZero
	}
	return uint64(seed)
}

// word returns state word i, computing its seeded value on first touch.
func (s *Source) word(i int) uint64 {
	if bit := uint64(1) << (i & 63); s.have[i>>6]&bit == 0 {
		s.have[i>>6] |= bit
		s.vec[i] = lcgTerm(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next 64 bits of the stream (math/rand's tap/feed walk).
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
