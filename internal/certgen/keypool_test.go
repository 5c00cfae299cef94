package certgen

import (
	"testing"
	"time"

	"tlsfof/internal/stats"
)

// size reports how many keys of the given size are pooled.
func (p *KeyPool) size(bits int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.bySize[bits])
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
