package study

// The world memo: every Run over one key pool gets the same world — the
// population, hosts, authoritative PKI and observation factory the first
// run built — so a later run signs nothing the first already signed.
// Tables must not depend on which world a run measured.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/clientpop"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/stats"
)

// otherPool is a second pool with keys of its own, one per size (the
// fewest to mint): its worlds share no chain with DefaultPool's.
var otherPool = certgen.NewKeyPool(1, nil)

// memoWorld returns the memoized world of pool's own study hosts, or nil.
func memoWorld(t *testing.T, pool *certgen.KeyPool, s clientpop.Study) *world {
	t.Helper()
	worlds.Lock()
	defer worlds.Unlock()
	for _, slot := range worlds.slots {
		if slot.key == (worldKey{pool, s, fmt.Sprint([]hostdb.Host(nil))}) {
			w, err := slot.get()
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
	}
	return nil
}

// forget drops every memoized world over pool, so the next run over it
// builds one.
func forget(pool *certgen.KeyPool) {
	worlds.Lock()
	defer worlds.Unlock()
	worlds.slots = slices.DeleteFunc(worlds.slots, func(s worldSlot) bool { return s.key.pool == pool })
}

func engineCount(f *obsFactory) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.engines)
}

func TestRunsOverOnePoolShareOneWorld(t *testing.T) {
	cfg := Config{Study: clientpop.Study2, Seed: 1, Scale: 0.01, Pool: certgen.DefaultPool}
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := memoWorld(t, certgen.DefaultPool, clientpop.Study2)
	if w == nil || w.auth != res1.Auth {
		t.Fatal("the run's world is not the memoized one")
	}
	engines := engineCount(w.factory)

	// Seed 2 draws no behaviour class that seed 1 did not draw at this
	// scale, so a shared factory creates no engine.
	cfg.Seed = 2
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Auth != res1.Auth || res2.Pop != res1.Pop || res2.Geo != res1.Geo {
		t.Error("a second run over the same pool built a second world")
	}
	if got := engineCount(w.factory); got != engines {
		t.Errorf("second run took the factory from %d engines to %d", engines, got)
	}
	if res2.Store.Totals() == res1.Store.Totals() {
		t.Error("different seeds produced identical totals over one world")
	}
}

func TestWorldPerPoolAndStudy(t *testing.T) {
	run := func(pool *certgen.KeyPool, s clientpop.Study) *Result {
		t.Helper()
		res, err := Run(Config{Study: s, Seed: 1, Scale: 0.001, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(certgen.DefaultPool, clientpop.Study2), run(otherPool, clientpop.Study2)
	if a.Auth == b.Auth {
		t.Error("two pools share one world")
	}
	if c := run(certgen.DefaultPool, clientpop.Study1); c.Auth == a.Auth {
		t.Error("two studies over one pool share one world")
	}
	base, err := RunHuangBaseline(Config{Study: clientpop.Study2, Seed: 1, Scale: 0.001, Pool: certgen.DefaultPool})
	if err != nil {
		t.Fatal(err)
	}
	if w := memoWorld(t, certgen.DefaultPool, clientpop.Study2); base.Tested == 0 || w == nil || w.auth != a.Auth {
		t.Error("the baseline's one-host world displaced the study's own")
	}
}

func TestNilPoolWorldIsNotKept(t *testing.T) {
	worlds.Lock()
	before := len(worlds.slots)
	worlds.Unlock()
	res, err := Run(Config{Study: clientpop.Study1, Seed: 1, Scale: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Pool == nil {
		t.Fatal("a run without a pool reports none")
	}
	worlds.Lock()
	defer worlds.Unlock()
	for _, s := range worlds.slots {
		if s.key.pool == res.Config.Pool {
			t.Fatal("the world of a run's own fresh pool was memoized")
		}
	}
	if len(worlds.slots) != before {
		t.Errorf("memo went from %d slots to %d", before, len(worlds.slots))
	}
}

func TestWorldMemoIsBounded(t *testing.T) {
	// One-host worlds over an already-minted pool cost a few signatures.
	var last *world
	for i := range maxWorlds + 2 {
		cfg := Config{Study: clientpop.Study1, Pool: certgen.DefaultPool}
		w, err := worldFor(&cfg, []hostdb.Host{{Name: fmt.Sprintf("bound-%d.example", i), Category: hostdb.Popular}})
		if err != nil {
			t.Fatal(err)
		}
		last = w
	}
	worlds.Lock()
	n := len(worlds.slots)
	worlds.Unlock()
	if n > maxWorlds {
		t.Errorf("memo holds %d worlds, bound %d", n, maxWorlds)
	}
	cfg := Config{Study: clientpop.Study1, Pool: certgen.DefaultPool}
	again, err := worldFor(&cfg, []hostdb.Host{{Name: fmt.Sprintf("bound-%d.example", maxWorlds+1), Category: hostdb.Popular}})
	if err != nil {
		t.Fatal(err)
	}
	if again != last {
		t.Error("the newest world was evicted")
	}
	if cfg.Scale != 1 {
		t.Errorf("a memo hit left Scale %v, want the 1.0 default", cfg.Scale)
	}
}

// TestConcurrentFirstRunsBuildOneWorld: goroutines that all start on a
// pool with no world build one between them, and each run's store is
// byte-identical to the same seed's run over DefaultPool's reused world.
func TestConcurrentFirstRunsBuildOneWorld(t *testing.T) {
	const runs = 4
	base := Config{Study: clientpop.Study2, Scale: 0.005, Pool: certgen.DefaultPool}
	want := make([][]byte, runs)
	for i := range want {
		cfg := base
		cfg.Seed = uint64(100 + i)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Store.AppendSnapshot(nil)
	}

	forget(otherPool)
	results := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Seed, cfg.Pool = uint64(100+i), otherPool
			res, err := Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	shared := memoWorld(t, certgen.DefaultPool, clientpop.Study2)
	for i, res := range results {
		if res.Auth != results[0].Auth {
			t.Errorf("run %d measured a second world", i)
		}
		if shared != nil && res.Auth == shared.auth {
			t.Errorf("run %d measured DefaultPool's world", i)
		}
		if !bytes.Equal(res.Store.AppendSnapshot(nil), want[i]) {
			t.Errorf("seed %d: store differs from the run over DefaultPool's world", 100+i)
		}
	}
}

// BenchmarkWarmRun is a study-2 run at scale 0.01 over a pool that has
// already run once, so its world is built: generation, tallies and the
// store merge, with no certificate signed.
func BenchmarkWarmRun(b *testing.B) {
	cfg := Config{Study: clientpop.Study2, Seed: 2014, Scale: 0.01, Pool: certgen.DefaultPool}
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Store.Totals().Tested), "ns/test")
}

// TestWorldsOverEqualPoolsSignEqualBytes: two worlds over key pools with
// equal seeds hold byte-identical authoritative chains and forge
// byte-identical chains, since no certificate draws a random serial or
// reads the wall clock.
func TestWorldsOverEqualPoolsSignEqualBytes(t *testing.T) {
	var ws [2]*world
	for i := range ws {
		w, err := newWorld(clientpop.Study2, certgen.NewKeyPool(1, stats.NewRNG(2014)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	for _, h := range ws[0].hosts {
		if a, b := ws[0].auth.Chains[h.Name], ws[1].auth.Chains[h.Name]; !slices.EqualFunc(a, b, bytes.Equal) {
			t.Fatalf("%s: the authoritative chains differ", h.Name)
		}
	}
	// Three behaviour classes keep the keys to mint few.
	var sigs []behaviorSig
	for _, d := range ws[0].factory.deps {
		if s := sigOf(d.Product); !slices.Contains(sigs, s) && len(sigs) < 3 {
			sigs = append(sigs, s)
		}
	}
	for _, s := range sigs {
		for hi, h := range ws[0].hosts {
			a, err := ws[0].factory.forge(s, hi)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ws[1].factory.forge(s, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(a, b, bytes.Equal) {
				t.Fatalf("%+v forging %s: the chains differ", s, h.Name)
			}
		}
	}
}
