// Package stats provides the deterministic random-number and sampling
// substrate used by every simulation component in this repository.
//
// The paper's measurement studies are stochastic at Internet scale; to make
// the reproduction auditable, all randomness flows from explicitly seeded
// generators in this package. Two studies run with the same seed produce
// byte-identical tables.
//
// The generator is xoshiro256** seeded via SplitMix64, implemented from
// scratch so that results do not depend on any particular Go release's
// math/rand internals.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256** pseudo-random generator.
//
// The zero value is not usable; construct with NewRNG. RNG is not safe for
// concurrent use; derive independent streams with Split for use across
// goroutines.
//
// The state is four named words rather than an array, stepped by one
// function over words held by value, so that Uint64, Float64, Intn and
// Chance stay under the compiler's inlining budget and FirstChance and
// Coins keep the state in registers: a study spends most of its CPU in
// these calls.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed-expansion state and returns the next value.
// xoshiro's authors recommend SplitMix64 for seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator deterministically seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// Guard against the all-zero state, which is a fixed point.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() (v uint64) {
	v, r.s0, r.s1, r.s2, r.s3 = step(r.s0, r.s1, r.s2, r.s3)
	return v
}

// step is one xoshiro256** step over state words held by value: the
// output, then the next state.
func step(s0, s1, s2, s3 uint64) (v, n0, n1, n2, n3 uint64) {
	s2 ^= s0
	s3 ^= s1
	return bits.RotateLeft64(s1*5, 7) * 9, s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)
}

// Split returns a new generator whose stream is independent of r's
// continued output. It consumes one value from r.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
//
// The rejection threshold 2⁶⁴ mod n is below n, so a draw whose low
// product word is at least n is accepted without it, and the division
// that computes it runs only on the rare draw that needs it (Lemire,
// "Fast Random Integer Generation in an Interval", TOMS 2019).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	v := r.Uint64()
	// Powers of two take the low bits.
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Chance is a probability resolved once into an integer coin, for a
// probability that is drawn against many times. With x the top 53 bits of
// one draw, Float64() < p holds exactly when x < ceil(p·2⁵³): x and the
// scaling by 2⁵³ are both exact in float64. So RNG.Chance(NewChance(p))
// answers from a draw as Float64() < p would, with a shift and an integer
// compare in place of a float conversion and divide.
type Chance struct {
	// t is the threshold x must fall below, at most 2⁵³, or one of the
	// draw-free coins.
	t uint64
}

// The draw-free coins, above every threshold.
const (
	chanceNever  = 1 << 63
	chanceAlways = chanceNever | 1
)

// NewChance resolves p into a coin with Bool's rules: p <= 0 is false and
// p >= 1 true without a draw; a NaN p draws and is false.
func NewChance(p float64) Chance {
	switch {
	case p <= 0:
		return Chance{chanceNever}
	case p >= 1:
		return Chance{chanceAlways}
	}
	return Chance{threshold(p)}
}

// threshold is ceil(p·2⁵³) clamped to [0, 2⁵³], with NaN at 0: the
// integer that the top 53 bits of a draw must fall below for
// Float64() < p.
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	// y is exact and below 2⁵³, so the truncation and its float64 are
	// too: rounding up is one compare.
	y := p * (1 << 53)
	t := uint64(int64(y))
	if float64(t) < y {
		t++
	}
	return t
}

// Chance flips coin c: true with the probability it was made from.
func (r *RNG) Chance(c Chance) bool {
	if c.t >= chanceNever {
		return c.t == chanceAlways
	}
	return r.Uint64()>>11 < c.t
}

// FirstChance flips the coins cs in order until one comes up true and
// returns its index, or len(cs) when none does: the draws of a loop of
// r.Chance(cs[i]) that stops at the first true, holding the state in
// registers for the whole loop.
func (r *RNG) FirstChance(cs []Chance) int {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	i := 0
	for ; i < len(cs); i++ {
		t := cs[i].t
		if t >= chanceNever {
			if t == chanceAlways {
				break
			}
			continue
		}
		var v uint64
		v, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if v>>11 < t {
			break
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return i
}

// Coins flips the coins cs, at most 64, in order and returns a mask
// whose bit i is set when cs[i] came up true: the draws of r.Chance over
// cs, holding the state in registers and branching on no outcome.
func (r *RNG) Coins(cs []Chance) uint64 {
	if len(cs) > 64 {
		panic("stats: Coins over more than 64 coins")
	}
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	var mask uint64
	for i, c := range cs {
		var hit uint64
		if c.t >= chanceNever {
			if c.t == chanceAlways {
				hit = 1
			}
		} else {
			var v uint64
			v, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			if v>>11 < c.t {
				hit = 1
			}
		}
		mask |= hit << i
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return mask
}

// Bool returns true with probability p. It draws once unless p <= 0 or
// p >= 1; a probability drawn against repeatedly is cheaper as a Chance.
func (r *RNG) Bool(p float64) bool {
	return r.Chance(NewChance(p))
}

// NormFloat64 returns a standard normal variate via the polar Box–Muller
// transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	var v uint64
	for i := range b {
		if i%8 == 0 {
			v = r.Uint64()
		}
		b[i] = byte(v)
		v >>= 8
	}
}

// Read implements io.Reader over the random stream; it never fails.
// This lets an RNG serve as the entropy source for crypto key generation
// in deterministic simulations.
func (r *RNG) Read(b []byte) (int, error) {
	r.Bytes(b)
	return len(b), nil
}

// FNV1a is the 32-bit FNV-1a hash of s: the repository's one stable
// string hash. durable.ShardOf partitions hosts with it and shard
// manifests pin that partition on disk, so it must never change.
func FNV1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
