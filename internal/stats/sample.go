package stats

import (
	"fmt"
	"math"
)

// Categorical samples indices in proportion to fixed weights using Walker's
// alias method: O(n) construction, O(1) per draw. It is the workhorse behind
// country mixes, product market shares, and host selection in the
// simulations.
type Categorical struct {
	// thresh is each column's own-index probability as a coin threshold
	// (see Chance): the top 53 bits of a draw below it keep the column.
	thresh []uint64
	alias  []int
}

// NewCategorical builds an alias table over weights. Negative weights are an
// error; the weights need not sum to 1. At least one weight must be positive.
func NewCategorical(weights []float64) (*Categorical, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("stats: categorical with no weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("stats: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("stats: categorical weights sum to zero")
	}

	c := &Categorical{
		thresh: make([]uint64, n),
		alias:  make([]int, n),
	}
	// Scaled probabilities; mean 1.0.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		c.thresh[l] = threshold(scaled[l])
		c.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		c.thresh[g] = threshold(1)
		c.alias[g] = g
	}
	for _, l := range small {
		c.thresh[l] = threshold(1)
		c.alias[l] = l
	}
	return c, nil
}

// Sample draws one index in proportion to the construction weights.
func (c *Categorical) Sample(r *RNG) int {
	i := r.Intn(len(c.thresh))
	if r.Uint64()>>11 < c.thresh[i] {
		return i
	}
	return c.alias[i]
}

// Binomial draws from Binomial(n, p). For the large-n regimes in the studies
// (millions of impressions), it uses a normal approximation with continuity
// correction; small n is sampled exactly.
func Binomial(r *RNG, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n < 64 {
		c, k := NewChance(p), 0
		for i := 0; i < n; i++ {
			if r.Chance(c) {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
