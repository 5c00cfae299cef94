package certgen

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"runtime"
	"sort"
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
// A pool is safe for concurrent use, and distinct keys mint concurrently.
// Its keys are reproducible only when NewKeyPool was given a seeded
// reader; DefaultPool's are not.
type KeyPool struct {
	// mu guards the slot tables and the cursor; no key is minted under it.
	mu      sync.Mutex
	bySize  map[int][]*keySlot // perSize slots each; nil = free
	perSize int
	named   map[string]*keySlot
	cursor  map[int]int

	// seed is nil for a crypto/rand pool. Otherwise every key mints from
	// its own stream, derived from seed and the key's identity; seedErr
	// is why the seed could not be read, returned by every mint.
	seed    *[32]byte
	seedErr error

	// onMint, when set, runs before every mint (tests count mints).
	onMint func()
}

// keySlot is one key, minted once: done closes when key or err is set.
type keySlot struct {
	done chan struct{}
	key  *rsa.PrivateKey
	err  error
}

// NewKeyPool creates a pool holding up to perSize keys for each bit size,
// generated lazily. With a nil entropy reader every key comes from
// crypto/rand. Otherwise NewKeyPool reads a 32-byte seed from entropy
// once, and each key is a function of that seed and the key's identity —
// "size b, slot i" for a pool key, "name N" for a named key — so equal
// streams give equal keys whatever order, or however concurrently, the
// keys are asked for.
func NewKeyPool(perSize int, entropy io.Reader) *KeyPool {
	if perSize < 1 {
		perSize = 1
	}
	p := &KeyPool{
		bySize:  make(map[int][]*keySlot),
		perSize: perSize,
		named:   make(map[string]*keySlot),
		cursor:  make(map[int]int),
	}
	if entropy != nil {
		p.seed = new([32]byte)
		if _, err := io.ReadFull(entropy, p.seed[:]); err != nil {
			p.seedErr = fmt.Errorf("certgen: read key seed: %w", err)
		}
	}
	return p
}

// steadyReader keeps rsa.GenerateKey deterministic over a seeded stream.
// For any reader but crypto/rand's, crypto/rsa reads one extra byte half
// the time, chosen at random (randutil.MaybeReadByte), which would shift
// the stream and so change every later prime. Those are the only one-byte
// reads key generation makes; steadyReader answers them with 0 and leaves
// r where it was.
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

// stream returns the entropy for the key with the given identity: the
// per-key seeded stream, or crypto/rand for an unseeded pool.
func (p *KeyPool) stream(identity []byte) io.Reader {
	if p.seed == nil {
		return rand.Reader
	}
	return steadyReader{mrand.NewChaCha8(sha256.Sum256(append(p.seed[:], identity...)))}
}

// slotIdentity and nameIdentity name a pool key and a named key. The
// prefixes keep the two kinds apart.
func slotIdentity(bits, i int) []byte { return fmt.Appendf(nil, "size %d slot %d", bits, i) }
func nameIdentity(name string) []byte { return append([]byte("name "), name...) }

// mint generates one key from the stream for identity.
func (p *KeyPool) mint(identity []byte, bits int) (*rsa.PrivateKey, error) {
	if p.onMint != nil {
		p.onMint()
	}
	if p.seedErr != nil {
		return nil, p.seedErr
	}
	k, err := rsa.GenerateKey(p.stream(identity), bits)
	if err != nil {
		return nil, fmt.Errorf("certgen: generate %d-bit key: %w", bits, err)
	}
	return k, nil
}

// reserveLocked claims the first free slot of size bits; ok is false when
// every slot is taken. The caller holds p.mu and must fill the slot.
func (p *KeyPool) reserveLocked(bits int) (i int, s *keySlot, ok bool) {
	slots := p.bySize[bits]
	if slots == nil {
		slots = make([]*keySlot, p.perSize)
		p.bySize[bits] = slots
	}
	for i, s := range slots {
		if s == nil {
			s = &keySlot{done: make(chan struct{})}
			slots[i] = s
			return i, s, true
		}
	}
	return 0, nil, false
}

// fill mints the key for reserved slot i of size bits and publishes it.
// A failed slot is freed again, so a later call retries it.
func (p *KeyPool) fill(bits, i int, s *keySlot) {
	s.key, s.err = p.mint(slotIdentity(bits, i), bits)
	if s.err != nil {
		p.mu.Lock()
		p.bySize[bits][i] = nil
		p.mu.Unlock()
	}
	close(s.done)
}

// Get returns a key of the requested bit size: a fresh one while the pool
// holds fewer than perSize keys of that size, then the pooled keys in
// round-robin order.
func (p *KeyPool) Get(bits int) (*rsa.PrivateKey, error) {
	if bits < 512 {
		return nil, fmt.Errorf("certgen: refusing key size %d (< 512 bits)", bits)
	}
	for {
		p.mu.Lock()
		i, s, fresh := p.reserveLocked(bits)
		if !fresh {
			i = p.cursor[bits] % p.perSize
			p.cursor[bits] = i + 1
			s = p.bySize[bits][i]
		}
		p.mu.Unlock()
		if fresh {
			p.fill(bits, i, s)
			return s.key, s.err
		}
		<-s.done
		if s.err == nil {
			return s.key, nil
		}
		// The slot's mint failed and was freed: retry, which reserves it.
	}
}

// Prewarm asynchronously fills the pool to perSize for each given size
// and returns a channel that delivers the outcome exactly once: nil when
// every size is full, or the first generation error (with the pool left
// partially warm). It reserves every missing slot before it returns, so
// a Get that follows waits for a prewarmed key rather than minting one of
// its own, and mints them on GOMAXPROCS workers, largest size first.
// Callers that need a warm pool before serving (cmd/mitmd startup) wait
// and check; callers that just want background warmup can drop the
// channel.
func (p *KeyPool) Prewarm(sizes ...int) <-chan error {
	type job struct {
		bits, i int
		s       *keySlot
	}
	var jobs []job
	var slots []*keySlot // every slot of every size asked for
	p.mu.Lock()
	for _, bits := range sizes {
		for {
			i, s, ok := p.reserveLocked(bits)
			if !ok {
				break
			}
			jobs = append(jobs, job{bits, i, s})
		}
		slots = append(slots, p.bySize[bits]...)
	}
	p.mu.Unlock()
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].bits > jobs[b].bits })

	done := make(chan error, 1)
	go func() {
		queue := make(chan job)
		for range min(runtime.GOMAXPROCS(0), len(jobs)) {
			go func() {
				for j := range queue {
					p.fill(j.bits, j.i, j.s)
				}
			}()
		}
		for _, j := range jobs {
			queue <- j
		}
		close(queue)
		// Slots other callers were already minting count too: the pool
		// is full only once they are.
		for _, s := range slots {
			<-s.done
			if s.err != nil {
				done <- s.err
				return
			}
		}
		done <- nil
	}()
	return done
}

// Named returns the key registered under name, generating a key of the
// given size on first request. Every later call with the same name returns
// the identical key regardless of bits. Concurrent first requests share
// one mint; a failed mint is forgotten, so a later call retries.
func (p *KeyPool) Named(name string, bits int) (*rsa.PrivateKey, error) {
	p.mu.Lock()
	s, ok := p.named[name]
	if !ok {
		s = &keySlot{done: make(chan struct{})}
		p.named[name] = s
	}
	p.mu.Unlock()
	if ok {
		<-s.done
	} else {
		s.key, s.err = p.mint(nameIdentity(name), bits)
		if s.err != nil {
			p.mu.Lock()
			delete(p.named, name)
			p.mu.Unlock()
		}
		close(s.done)
	}
	if s.err != nil {
		return nil, fmt.Errorf("certgen: named key %q: %w", name, s.err)
	}
	return s.key, nil
}

// DefaultPool is the process-wide pool behind every nil Pool in CAConfig,
// LeafConfig and proxyengine.Options, and the one key source of every
// test that is not about key generation or pool isolation: a test binary
// mints each key size and each named key at most once. Its keys come
// from crypto/rand.
var DefaultPool = NewKeyPool(2, nil)
