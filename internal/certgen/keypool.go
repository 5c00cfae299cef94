package certgen

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
	"sync"
)

// KeyPool caches RSA private keys by bit size so that the thousands of
// substitute certificates minted during a simulated study do not each pay
// for prime generation. Real interception products behave the same way: one
// proxy key signs every forged leaf.
//
// The pool also supports named keys, which reproduces the
// "IopFailZeroAccessCreate" malware from §5.1: every one of its certificates,
// observed in 14 countries, carried the same 512-bit public key.
//
// A pool is safe for concurrent use. Its keys are reproducible only when
// NewKeyPool was given a seeded reader; DefaultPool's are not.
type KeyPool struct {
	mu      sync.Mutex
	bySize  map[int][]*rsa.PrivateKey
	perSize int
	named   map[string]*rsa.PrivateKey
	cursor  map[int]int

	// genMu serializes all key generation so the entropy reader is never
	// read concurrently (audit and bench inject seeded readers).
	genMu   sync.Mutex
	entropy io.Reader
}

// NewKeyPool creates a pool holding up to perSize keys for each bit size,
// generated lazily from entropy (crypto/rand when nil). An injected
// reader makes the pool deterministic: equal streams mint equal keys in
// the same order.
func NewKeyPool(perSize int, entropy io.Reader) *KeyPool {
	if perSize < 1 {
		perSize = 1
	}
	if entropy == nil {
		entropy = rand.Reader
	} else {
		entropy = steadyReader{entropy}
	}
	return &KeyPool{
		entropy: entropy,
		bySize:  make(map[int][]*rsa.PrivateKey),
		perSize: perSize,
		named:   make(map[string]*rsa.PrivateKey),
		cursor:  make(map[int]int),
	}
}

// steadyReader keeps rsa.GenerateKey deterministic over an injected
// reader. For any reader but crypto/rand's, crypto/rsa reads one extra
// byte half the time, chosen at random (randutil.MaybeReadByte), which
// would shift the stream and so change every later prime. Those are the
// only one-byte reads key generation makes; steadyReader answers them
// with 0 and leaves r where it was.
type steadyReader struct{ r io.Reader }

func (s steadyReader) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return s.r.Read(p)
}

// KeySizes observed in the study's substitute certificates (§5.2): the
// authors' server used 2048; proxies downgraded half of all connections to
// 1024, 21 certificates to 512, and a handful upgraded to 2432.
var KeySizes = []int{512, 1024, 2048, 2432}

// generate mints one key with generation serialized pool-wide.
func (p *KeyPool) generate(bits int) (*rsa.PrivateKey, error) {
	p.genMu.Lock()
	defer p.genMu.Unlock()
	k, err := rsa.GenerateKey(p.entropy, bits)
	if err != nil {
		return nil, fmt.Errorf("certgen: generate %d-bit key: %w", bits, err)
	}
	return k, nil
}

// Get returns a key of the requested bit size, round-robining over the pool
// once it holds perSize keys of that size and generating until then.
func (p *KeyPool) Get(bits int) (*rsa.PrivateKey, error) {
	if bits < 512 {
		return nil, fmt.Errorf("certgen: refusing key size %d (< 512 bits)", bits)
	}
	p.mu.Lock()
	keys := p.bySize[bits]
	if len(keys) >= p.perSize {
		i := p.cursor[bits] % len(keys)
		p.cursor[bits] = i + 1
		k := keys[i]
		p.mu.Unlock()
		return k, nil
	}
	p.mu.Unlock()

	k, err := p.generate(bits)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bySize[bits]) < p.perSize {
		p.bySize[bits] = append(p.bySize[bits], k)
	}
	return k, nil
}

// Prewarm asynchronously fills the pool to perSize for each given size
// and returns a channel that delivers the outcome exactly once: nil when
// every size is full, or the first generation error (with the pool left
// partially warm). Callers that need a warm pool before serving
// (cmd/mitmd startup) wait and check; callers that just want background
// warmup can drop the channel.
func (p *KeyPool) Prewarm(sizes ...int) <-chan error {
	done := make(chan error, 1)
	go func() {
		for _, bits := range sizes {
			for {
				p.mu.Lock()
				full := len(p.bySize[bits]) >= p.perSize
				p.mu.Unlock()
				if full {
					break
				}
				k, err := p.generate(bits)
				if err != nil {
					done <- err
					return
				}
				p.mu.Lock()
				if len(p.bySize[bits]) < p.perSize {
					p.bySize[bits] = append(p.bySize[bits], k)
				}
				p.mu.Unlock()
			}
		}
		done <- nil
	}()
	return done
}

// Named returns the key registered under name, generating a key of the
// given size on first request. Every later call with the same name returns
// the identical key regardless of bits.
func (p *KeyPool) Named(name string, bits int) (*rsa.PrivateKey, error) {
	p.mu.Lock()
	if k, ok := p.named[name]; ok {
		p.mu.Unlock()
		return k, nil
	}
	p.mu.Unlock()
	// Generate outside the map lock; losing a race just wastes one key.
	k, err := p.generate(bits)
	if err != nil {
		return nil, fmt.Errorf("certgen: named key %q: %w", name, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.named[name]; ok {
		return existing, nil
	}
	p.named[name] = k
	return k, nil
}

// DefaultPool is the process-wide pool behind every nil Pool in CAConfig,
// LeafConfig and proxyengine.Options, and the one key source of every
// test that is not about key generation or pool isolation: a test binary
// mints each key size and each named key at most once. Its keys come
// from crypto/rand.
var DefaultPool = NewKeyPool(2, nil)
