package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincide %d/100 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	child := r.Split()
	// Parent and child streams should not be identical.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream tracks parent (%d/64 equal)", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of uniform draws = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(9)
	const n = 5
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.2) > 0.01 {
			t.Fatalf("bucket %d has fraction %v, want ~0.2", i, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestReadNeverFails(t *testing.T) {
	r := NewRNG(23)
	buf := make([]byte, 1000)
	n, err := r.Read(buf)
	if n != len(buf) || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	zero := 0
	for _, b := range buf {
		if b == 0 {
			zero++
		}
	}
	if zero > 50 {
		t.Fatalf("suspiciously many zero bytes: %d/1000", zero)
	}
}

func TestCategoricalProportions(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	c, err := NewCategorical(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(29)
	counts := make([]int, 4)
	const draws = 400000
	for i := 0; i < draws; i++ {
		counts[c.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalErrors(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewCategorical([]float64{math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestCategoricalSingleCategory(t *testing.T) {
	c, err := NewCategorical([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if c.Sample(r) != 0 {
			t.Fatal("single-category sampler returned nonzero index")
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c, err := NewCategorical([]float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(31)
	for i := 0; i < 100000; i++ {
		if c.Sample(r) == 1 {
			t.Fatal("zero-weight category was sampled")
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(41)
	// Large-n path.
	const n, p = 10000, 0.004
	const trials = 2000
	sum := 0
	for i := 0; i < trials; i++ {
		k := Binomial(r, n, p)
		if k < 0 || k > n {
			t.Fatalf("binomial out of range: %d", k)
		}
		sum += k
	}
	mean := float64(sum) / trials
	want := float64(n) * p
	if math.Abs(mean-want) > 1.0 {
		t.Fatalf("binomial mean %v, want ~%v", mean, want)
	}
}

func TestBinomialSmallNExact(t *testing.T) {
	r := NewRNG(43)
	sum := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		sum += Binomial(r, 10, 0.3)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("small-n binomial mean %v, want ~3", mean)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(1)
	if Binomial(r, 0, 0.5) != 0 {
		t.Error("n=0 should give 0")
	}
	if Binomial(r, 10, 0) != 0 {
		t.Error("p=0 should give 0")
	}
	if Binomial(r, 10, 1) != 10 {
		t.Error("p=1 should give n")
	}
}

func TestCounterTopOrdering(t *testing.T) {
	c := NewCounter()
	c.AddN("b", 5)
	c.AddN("a", 5)
	c.AddN("z", 10)
	c.Add("solo")
	top := c.Top(0)
	if len(top) != 4 {
		t.Fatalf("want 4 entries, got %d", len(top))
	}
	if top[0].Key != "z" || top[1].Key != "a" || top[2].Key != "b" {
		t.Fatalf("bad order: %v", top)
	}
	if got := c.Top(2); len(got) != 2 {
		t.Fatalf("Top(2) returned %d", len(got))
	}
	total := 0
	for _, e := range top {
		total += e.Count
	}
	if total != 21 {
		t.Fatalf("entries sum to %d, want 21", total)
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestQuickUint64nInRange(t *testing.T) {
	r := NewRNG(59)
	f := func(n uint64, _ int) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Categorical over random weights never samples a zero-weight
// category and never returns out-of-range indices.
func TestQuickCategoricalValid(t *testing.T) {
	r := NewRNG(61)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		anyPos := false
		for i, b := range raw {
			weights[i] = float64(b)
			if b > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			return true
		}
		c, err := NewCategorical(weights)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			idx := c.Sample(r)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkCategoricalSample(b *testing.B) {
	weights := make([]float64, 250)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	c, _ := NewCategorical(weights)
	r := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sample(r)
	}
}

func BenchmarkRNGBool(b *testing.B) {
	r := NewRNG(1)
	for b.Loop() {
		r.Bool(0.0041)
	}
}

func BenchmarkRNGChance(b *testing.B) {
	r := NewRNG(1)
	c := NewChance(0.0041)
	for b.Loop() {
		r.Chance(c)
	}
}

// BenchmarkRNGIntn draws over a range that is not a power of two, so
// every draw takes Lemire's multiply path.
func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	for b.Loop() {
		r.Intn(1000)
	}
}
