package certgen

import (
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"strconv"
	"testing"

	"tlsfof/internal/stats"
)

// TestKeyPoolKeysPinned: a seeded pool's keys are recorded bytes. The
// SHA-256 of each key's PKCS#1 DER over stats.NewRNG(2016) was recorded
// while crypto/rsa.GenerateKey still minted the pool's keys, so a mint
// that moves a single prime, or a seed-to-stream change, fails here.
func TestKeyPoolKeysPinned(t *testing.T) {
	want := map[string]string{
		"size 512 slot 0":  "6e26914f14ac4a2567c8dd15149cb4c60e01491da7928ecbb48aa17f03dcbcaf",
		"size 512 slot 1":  "6e20ff338e850a68b49fbbe7ce884dc85d02829679f94243b944f0316a3d38fe",
		"size 1024 slot 0": "5c5a7703a1c464e17b08ce7f52c303a634d2a597ab1b901bfe018f665958798b",
		"size 1024 slot 1": "36548b0ec55e1375f59beadaae39e07c02406c050c2deb2b31f3af4b4d3981b7",
		"size 2048 slot 0": "458f213d8a03e88c6c7a519d2cce47065ee8232957b1556242e4182e17f427e6",
		"size 2048 slot 1": "a94985f8bf5445cc8bad082a5ea3b66e6062844aacf8dba7df63989193d03879",
		"size 2432 slot 0": "1193f5da8ebde5584caaa67fbf5819808de9a18272d03dd2e9e5dde06ce105c1",
		"size 2432 slot 1": "57279f4d142110fd1748457d2477f53b514cd349df26a64c137b9243565e58cf",
		"name malware-512": "5fd3f72ff1bd3653947e50d3b6a5362fc43ea8234a76c1e109384577806b2e29",
		"name proxy-ca":    "96ea4def8cde1d4bc7bb94e3e63583165ecfcc4665d9aad2d53ae3ec97c1d902",
	}
	pool := NewKeyPool(2, stats.NewRNG(2016))
	check := func(id string, k *rsa.PrivateKey, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(x509.MarshalPKCS1PrivateKey(k))
		if got := hex.EncodeToString(sum[:]); got != want[id] {
			t.Errorf("%s: PKCS#1 SHA-256 %s, pinned %s", id, got, want[id])
		}
	}
	for _, bits := range KeySizes {
		for i := range 2 {
			k, err := pool.Get(bits)
			check(fmt.Sprintf("size %d slot %d", bits, i), k, err)
		}
	}
	k, err := pool.Named("malware-512", 512)
	check("name malware-512", k, err)
	k, err = pool.Named("proxy-ca", 2048)
	check("name proxy-ca", k, err)
}

// zeroByteReader answers crypto/rsa's random one-byte reads
// (randutil.MaybeReadByte) with 0 and leaves r where it was; every other
// read is r's. Over it, rsa.GenerateKey reads the candidates generateKey
// reads.
type zeroByteReader struct{ r io.Reader }

func (z zeroByteReader) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return z.r.Read(p)
}

// identityStream is the key stream for identity i of a test.
func identityStream(bits, i int) io.Reader {
	return mrand.NewChaCha8(sha256.Sum256(fmt.Appendf(nil, "mint %d %d", bits, i)))
}

// TestMintMatchesCryptoRSA: over the same stream, generateKey and
// rsa.GenerateKey mint byte-identical keys.
func TestMintMatchesCryptoRSA(t *testing.T) {
	for _, tc := range []struct{ bits, n int }{{512, 16}, {1024, 16}, {2048, 2}} {
		for i := range tc.n {
			want, err := rsa.GenerateKey(zeroByteReader{identityStream(tc.bits, i)}, tc.bits)
			if err != nil {
				t.Fatal(err)
			}
			got, err := generateKey(identityStream(tc.bits, i), tc.bits)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%d-bit key %d: %v", tc.bits, i, err)
			}
			if string(x509.MarshalPKCS1PrivateKey(got)) != string(x509.MarshalPKCS1PrivateKey(want)) {
				t.Errorf("%d-bit key %d differs from crypto/rsa's", tc.bits, i)
			}
		}
	}
}

// BenchmarkKeyMint: one key per iteration at each size the study
// observed, each from its own stream.
func BenchmarkKeyMint(b *testing.B) {
	for _, bits := range KeySizes {
		b.Run(strconv.Itoa(bits), func(b *testing.B) {
			for i := range b.N {
				if _, err := generateKey(identityStream(bits, i), bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
