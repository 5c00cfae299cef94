package certgen

import (
	"testing"
	"time"
)

// TestKeyPoolSyncUnchanged: Get generates until perSize keys exist.
func TestKeyPoolSyncUnchanged(t *testing.T) {
	pool := NewKeyPool(2, nil)
	k1, _ := pool.Get(512)
	k2, _ := pool.Get(512)
	if k1 == k2 {
		t.Fatal("sync pool served a repeat before reaching capacity")
	}
	if pool.Len(512) != 2 {
		t.Fatalf("pool len = %d, want 2", pool.Len(512))
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
	if pool.Len(512) != 2 || pool.Len(768) != 2 {
		t.Fatalf("prewarm lens = %d/%d, want 2/2", pool.Len(512), pool.Len(768))
	}
	// A post-prewarm Get is a pure pool hit.
	if _, err := pool.Get(512); err != nil {
		t.Fatal(err)
	}
}
