package certgen

import (
	"crypto/rsa"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/stats"
)

// size reports how many keys of the given size are pooled.
func (p *KeyPool) size(bits int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.bySize[bits] {
		if s != nil {
			<-s.done
			if s.err == nil {
				n++
			}
		}
	}
	return n
}

// slotKey returns pool key i of the given size, nil if it was never minted.
func (p *KeyPool) slotKey(bits, i int) *rsa.PrivateKey {
	p.mu.Lock()
	slots := p.bySize[bits]
	p.mu.Unlock()
	if i >= len(slots) || slots[i] == nil {
		return nil
	}
	<-slots[i].done
	return slots[i].key
}

// TestKeyPoolSyncUnchanged: Get generates until perSize keys exist.
func TestKeyPoolSyncUnchanged(t *testing.T) {
	pool := NewKeyPool(2, nil)
	k1, _ := pool.Get(512)
	k2, _ := pool.Get(512)
	if k1 == k2 {
		t.Fatal("sync pool served a repeat before reaching capacity")
	}
	if pool.size(512) != 2 {
		t.Fatalf("pool len = %d, want 2", pool.size(512))
	}
}

// TestKeyPoolPrewarm: Prewarm fills every requested size and closes its
// done channel.
func TestKeyPoolPrewarm(t *testing.T) {
	pool := NewKeyPool(2, nil)
	select {
	case err := <-pool.Prewarm(512, 768):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("prewarm did not complete")
	}
	if pool.size(512) != 2 || pool.size(768) != 2 {
		t.Fatalf("prewarm lens = %d/%d, want 2/2", pool.size(512), pool.size(768))
	}
	// A post-prewarm Get is a pure pool hit.
	if _, err := pool.Get(512); err != nil {
		t.Fatal(err)
	}
}

// TestKeyPoolSeededIsDeterministic: two pools over equal seeded streams
// mint equal keys. crypto/rsa's random extra one-byte read would make
// them differ without the pool's steadyReader.
func TestKeyPoolSeededIsDeterministic(t *testing.T) {
	a := NewKeyPool(2, stats.NewRNG(2016))
	b := NewKeyPool(2, stats.NewRNG(2016))
	for _, bits := range []int{512, 512, 1024} {
		ka, err := a.Get(bits)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := b.Get(bits)
		if err != nil {
			t.Fatal(err)
		}
		if !ka.Equal(kb) {
			t.Fatalf("%d-bit keys from equal seeds differ", bits)
		}
	}
}

// TestKeyPoolKeysIgnoreRequestOrder: a seeded pool's keys are a function
// of the seed and each key's identity, so a pool asked sequentially and
// an equal one asked from 8 goroutines in shuffled order — Get, Named and
// Prewarm mixed — hold equal keys for every size slot and every name.
// Drawing every key from one shared stream, even under a lock, fails
// this: the mint order, and so each key's stretch of the stream, differs.
func TestKeyPoolKeysIgnoreRequestOrder(t *testing.T) {
	sizes := []int{512, 1024}
	names := []string{"malware-512", "proxy-ca", "root-ca"}
	seq := NewKeyPool(2, stats.NewRNG(2016))
	for _, bits := range sizes {
		for range 2 {
			if _, err := seq.Get(bits); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range names {
		if _, err := seq.Named(n, 512); err != nil {
			t.Fatal(err)
		}
	}

	conc := NewKeyPool(2, stats.NewRNG(2016))
	var ops []func() error
	for _, bits := range sizes {
		for range 3 { // one more than perSize: a round-robin hit
			ops = append(ops, func() error { _, err := conc.Get(bits); return err })
		}
	}
	for _, n := range names {
		ops = append(ops, func() error { _, err := conc.Named(n, 512); return err })
	}
	ops = append(ops, func() error { return <-conc.Prewarm(sizes...) })
	rand.New(rand.NewPCG(7, 42)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	work := make(chan func() error)
	errs := make(chan error, len(ops))
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				errs <- op()
			}
		}()
	}
	for _, op := range ops {
		work <- op
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, bits := range sizes {
		for i := range 2 {
			a, b := seq.slotKey(bits, i), conc.slotKey(bits, i)
			if a == nil || b == nil || !a.Equal(b) {
				t.Errorf("%d-bit slot %d differs between request orders", bits, i)
			}
		}
	}
	for _, n := range names {
		a, _ := seq.Named(n, 512)
		b, _ := conc.Named(n, 512)
		if !a.Equal(b) {
			t.Errorf("named key %q differs between request orders", n)
		}
	}
}

// TestKeyPoolNamedStormMintsOnce: concurrent first requests for one name
// share a single mint and all get the identical key.
func TestKeyPoolNamedStormMintsOnce(t *testing.T) {
	pool := NewKeyPool(1, nil)
	mints := pool.countMints()
	keys := make([]*rsa.PrivateKey, 16)
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := pool.Named("storm", 512)
			if err != nil {
				t.Error(err)
			}
			keys[g] = k
		}()
	}
	wg.Wait()
	if n := mints.Load(); n != 1 {
		t.Fatalf("16 concurrent Named calls minted %d keys, want 1", n)
	}
	for _, k := range keys {
		if k != keys[0] {
			t.Fatal("concurrent Named calls got different keys")
		}
	}
}

// TestKeyPoolNamedRetriesAfterFailure: a failed mint is not remembered
// under its name, so a later request for the name mints again.
func TestKeyPoolNamedRetriesAfterFailure(t *testing.T) {
	pool := NewKeyPool(1, nil)
	if _, err := pool.Named("retry", 0); err == nil {
		t.Fatal("0-bit named key minted")
	}
	k, err := pool.Named("retry", 1024)
	if err != nil {
		t.Fatalf("retry after a failed mint: %v", err)
	}
	if k.PublicKey.Size()*8 != 1024 {
		t.Fatalf("retried key is %d bits, want 1024", k.PublicKey.Size()*8)
	}
}
