package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/bits"
	"testing"
)

// streamPin is the SHA-256 of drawScript's output from seed 0x5eed. Every
// table in the repository is a function of the draw stream, so a change
// to the generator may make draws cheaper but must leave this hash as it
// is: the same values, consumed in the same number and order.
const streamPin = "e1a087363106c1e79a78afe15e46dfb17985a7f788ced9ecca6d7090fb9acd54"

// drawScript runs a fixed script over every draw the package offers and
// writes each result into h.
func drawScript(r *RNG, h hash.Hash) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < 256; i++ {
		put(r.Uint64())
		put(math.Float64bits(r.Float64()))
	}
	for _, n := range []uint64{1, 3, 7, 1000, 1<<20 + 1, 1<<63 + 1, 1 << 62} {
		for i := 0; i < 64; i++ {
			put(r.Uint64n(n))
			if n <= math.MaxInt {
				put(uint64(r.Intn(int(n))))
			}
		}
	}
	for _, p := range []float64{-1, 0, 0x1p-53, 0.0041, 0.5, 1 - 0x1p-53, 1, 2, math.NaN()} {
		for i := 0; i < 64; i++ {
			if r.Bool(p) {
				put(1)
			} else {
				put(0)
			}
		}
		put(r.Uint64()) // shows whether the coins drew
	}
	c, err := NewCategorical([]float64{1000, 1, 0, 37.5, 0.001, 250, 3})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 512; i++ {
		put(uint64(c.Sample(r)))
	}
	for i := 0; i < 64; i++ {
		put(math.Float64bits(r.NormFloat64()))
	}
	for n := 0; n <= 17; n++ {
		b := make([]byte, n)
		r.Bytes(b)
		h.Write(b)
		put(r.Uint64())
	}
	child := r.Split()
	for i := 0; i < 16; i++ {
		put(child.Uint64())
		put(r.Uint64())
	}
}

// TestRNGStreamPinned pins the draw stream: the hash was recorded from the
// generator before its draw kernel was rewritten for speed, and it stays.
func TestRNGStreamPinned(t *testing.T) {
	h := sha256.New()
	drawScript(NewRNG(0x5eed), h)
	if got := hex.EncodeToString(h.Sum(nil)); got != streamPin {
		t.Fatalf("draw stream hash = %s, want %s", got, streamPin)
	}
}

// floatCoin is the float form of the coin that Bool had before Chance:
// false for p <= 0 and true for p >= 1 without a draw, else
// Float64() < p. TestChanceMatchesBool holds Chance to it.
func floatCoin(r *RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// TestChanceMatchesBool: Bool(p), Chance(NewChance(p)) and the float coin
// on equal-seed generators give equal answers and leave equal states, for
// random p, the draw-free and NaN cases, and every probability k/2⁵³ near
// the ends of [0, 1] and at random k, each with its float64 neighbours.
// For each of those p the threshold also decides the draws on both sides
// of it exactly as Float64() < p does.
func TestChanceMatchesBool(t *testing.T) {
	ps := []float64{math.Inf(-1), -1, -0x1p-1074, 0, 0x1p-1074, 0x1p-60, 0.0041, 0.5, 1, 1 + 0x1p-52, 2, math.Inf(1), math.NaN()}
	pr := NewRNG(99)
	for i := 0; i < 2000; i++ {
		ps = append(ps, pr.Float64())
	}
	var ks []uint64
	for k := uint64(0); k <= 1024; k++ {
		ks = append(ks, k, 1<<52-512+k, 1<<53-k)
	}
	for i := 0; i < 2000; i++ {
		ks = append(ks, pr.Uint64()>>11)
	}
	for _, k := range ks {
		p := float64(k) / (1 << 53)
		ps = append(ps, p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)))
	}
	a, b, c := NewRNG(7), NewRNG(7), NewRNG(7)
	for _, p := range ps {
		for j := 0; j < 4; j++ {
			got, bv, want := a.Chance(NewChance(p)), b.Bool(p), floatCoin(c, p)
			if got != want || bv != want || *a != *c || *b != *c {
				t.Fatalf("p=%v: Chance=%v Bool=%v float coin=%v, states equal: %v %v", p, got, bv, want, *a == *c, *b == *c)
			}
		}
		if !(p > 0 && p < 1) {
			continue
		}
		th := threshold(p)
		for _, x := range []uint64{th - 1, th, th + 1} {
			if x >= 1<<53 {
				continue
			}
			if want := float64(x)/(1<<53) < p; (x < th) != want {
				t.Fatalf("p=%v x=%d: x < threshold %d is %v, Float64() < p is %v", p, x, th, x < th, want)
			}
		}
	}
}

// randomCoins returns up to max coins over random probabilities, one in
// eight of them draw-free or NaN.
func randomCoins(r *RNG, max int) []Chance {
	special := []float64{0, 1, math.NaN(), -1}
	cs := make([]Chance, r.Intn(max+1))
	for j := range cs {
		p := r.Float64() * r.Float64()
		if r.Intn(8) == 0 {
			p = special[r.Intn(len(special))]
		}
		cs[j] = NewChance(p)
	}
	return cs
}

// TestFirstChanceMatchesChance: FirstChance makes the draws of a loop of
// Chance that stops at the first true, and returns where it stopped.
func TestFirstChanceMatchesChance(t *testing.T) {
	pr := NewRNG(5)
	a, b := NewRNG(11), NewRNG(11)
	for i := 0; i < 5000; i++ {
		cs := randomCoins(pr, 20)
		want := len(cs)
		for j, c := range cs {
			if b.Chance(c) {
				want = j
				break
			}
		}
		if got := a.FirstChance(cs); got != want || *a != *b {
			t.Fatalf("case %d: FirstChance = %d, the Chance loop stopped at %d; states equal: %v", i, got, want, *a == *b)
		}
	}
}

// TestCoinsMatchChance: Coins makes the draws of a loop of Chance over
// every coin, and its mask holds their answers.
func TestCoinsMatchChance(t *testing.T) {
	pr := NewRNG(6)
	a, b := NewRNG(12), NewRNG(12)
	for i := 0; i < 5000; i++ {
		cs := randomCoins(pr, 64)
		var want uint64
		for j, c := range cs {
			if b.Chance(c) {
				want |= 1 << j
			}
		}
		if got := a.Coins(cs); got != want || *a != *b {
			t.Fatalf("case %d: Coins = %#x, the Chance loop gave %#x; states equal: %v", i, got, want, *a == *b)
		}
	}
}

// inverse is a⁻¹ mod 2⁶⁴ for odd a, by Newton's iteration.
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// yielding returns a generator whose next Uint64 is v.
func yielding(v uint64) *RNG {
	r := NewRNG(v)
	r.s1 = bits.RotateLeft64(v*inverse(9), -7) * inverse(5)
	return r
}

// TestUint64nLazyThreshold: for draws whose low product word sits on
// either side of n and of the rejection threshold 2⁶⁴ mod n, Uint64n
// accepts and rejects exactly as the method that computes the threshold
// before every draw does, and consumes the same draws.
func TestUint64nLazyThreshold(t *testing.T) {
	eager := func(r *RNG, n uint64) uint64 {
		thresh := -n % n
		for {
			hi, lo := bits.Mul64(r.Uint64(), n)
			if lo >= thresh {
				return hi
			}
		}
	}
	for _, n := range []uint64{3, 7, 1000 + 1, 1<<20 + 1, 1<<63 + 1, 1<<64 - 1} {
		thresh := -n % n
		for _, lo := range []uint64{0, 1, thresh - 1, thresh, thresh + 1, n - 1, n, n + 1} {
			v := lo * inverse(n) // odd n: v·n mod 2⁶⁴ = lo
			if got := yielding(v).Uint64(); got != v {
				t.Fatalf("yielding(%#x) yields %#x", v, got)
			}
			a, b := yielding(v), yielding(v)
			if got, want := a.Uint64n(n), eager(b, n); got != want || *a != *b {
				t.Fatalf("n=%d lo=%d: Uint64n = %d, eager = %d; states equal: %v", n, lo, got, want, *a == *b)
			}
		}
	}
}
