package certgen

import (
	"crypto/rsa"
	"errors"
	"io"
	"math"
	"math/big"
)

// sieveBound: candidates are first divided by the odd primes below it. 2¹⁴
// costs least per candidate for the primes of the 2048- and 2432-bit keys
// that dominate minting (EXPERIMENTS "Keys by math/big", BenchmarkKeyMint).
const sieveBound = 1 << 14

// sieve holds the odd primes below sieveBound in runs led by their product,
// which fits in a uint64: one division of a candidate by it gives a residue
// that each prime of the run then divides as a machine word.
var sieve = func() (runs [][]uint64) {
	composite := make([]bool, sieveBound)
	run := []uint64{1}
	for p := uint64(3); p < sieveBound; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < sieveBound; m += 2 * p {
			composite[m] = true
		}
		if run[0] > math.MaxUint64/p {
			runs, run = append(runs, run), []uint64{1}
		}
		run[0] *= p
		run = append(run, p)
	}
	return append(runs, run)
}()

// generateKey mints a two-prime RSA key with e = 65537. From a stream it
// picks the primes Go 1.24's rsa.GenerateKey picks once that function's
// random one-byte reads are answered with 0: the same candidates, the
// first prime among them, the same retries and errors. Only the primality
// test is its own: trial division below sieveBound, then ProbablyPrime.
func generateKey(rand io.Reader, bits int) (*rsa.PrivateKey, error) {
	one, e := big.NewInt(1), big.NewInt(65537)
	for {
		p, err := randomPrime(rand, (bits+1)/2)
		if err != nil {
			return nil, err
		}
		q, err := randomPrime(rand, bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			return nil, errors.New("generated p == q, random source is broken")
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			return nil, errors.New("modulus size incorrect")
		}
		// D = e⁻¹ mod λ(N), λ(N) = lcm(p−1, q−1). crypto/rsa draws both
		// primes again when the odd part of gcd(p−1, q−1) passes 32 bits.
		p1, q1 := new(big.Int).Sub(p, one), new(big.Int).Sub(q, one)
		g := new(big.Int).GCD(nil, nil, p1, q1)
		if new(big.Int).Rsh(g, g.TrailingZeroBits()).BitLen() > 32 {
			continue
		}
		d := new(big.Int).ModInverse(e, p1.Mul(p1, q1.Quo(q1, g)))
		if d == nil {
			continue
		}
		k := &rsa.PrivateKey{PublicKey: rsa.PublicKey{N: n, E: 65537}, D: d, Primes: []*big.Int{p, q}}
		k.Precompute()
		return k, nil
	}
}

// randomPrime returns the first prime among candidates of the given size
// read from rand, each shaped as crypto/rsa shapes it: the first byte
// shifted right by the bytes' excess bits, then the top two bits and the
// low bit set.
func randomPrime(rand io.Reader, bits int) (*big.Int, error) {
	b := make([]byte, (bits+7)/8)
	var w, quo, rem, m big.Int
next:
	for {
		if _, err := io.ReadFull(rand, b); err != nil {
			return nil, err
		}
		b[0] >>= len(b)*8 - bits
		w.SetBytes(b).SetBit(&w, bits-1, 1).SetBit(&w, bits-2, 1).SetBit(&w, 0, 1)
		for _, run := range sieve {
			quo.QuoRem(&w, m.SetUint64(run[0]), &rem)
			for _, p := range run[1:] {
				if rem.Uint64()%p == 0 {
					continue next
				}
			}
		}
		if w.ProbablyPrime(5) {
			return &w, nil
		}
	}
}
