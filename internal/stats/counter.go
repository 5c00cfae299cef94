package stats

import "sort"

// Counter tallies occurrences of string keys. It backs every "top-N values
// of field X" table in the analysis pipeline (e.g. Table 4's Issuer
// Organization histogram).
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int)}
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n int) {
	c.counts[key] += n
}

// Entry is one (key, count) pair from a Counter.
type Entry struct {
	Key   string
	Count int
}

// Top returns the n largest entries, count-descending with key as the
// tiebreaker so output order is deterministic. n <= 0 returns all entries.
func (c *Counter) Top(n int) []Entry {
	all := make([]Entry, 0, len(c.counts))
	for k, v := range c.counts {
		all = append(all, Entry{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if n > 0 && n < len(all) {
		return all[:n]
	}
	return all
}
