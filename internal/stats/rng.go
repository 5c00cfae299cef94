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
type RNG struct {
	s [4]uint64
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
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
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
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
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
// string hash. ingest.ShardOf partitions hosts with it and shard
// manifests pin that partition on disk, so it must never change.
func FNV1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
