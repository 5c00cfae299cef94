package durable

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/raceflag"
)

// batchOf builds a batch from ms with Add.
func batchOf(id uint64, ms []core.Measurement) *Batch {
	b := new(Batch)
	b.Reset(id, 0)
	for i := range ms {
		b.Add(&ms[i])
	}
	return b
}

// batchTestMeasurements is syntheticMeasurements plus the corners: an
// all-empty measurement and a proxied one with every string set.
func batchTestMeasurements() []core.Measurement {
	ms := syntheticMeasurements(300, 51)
	ms = append(ms, core.Measurement{Time: ms[0].Time}, core.Measurement{
		Time: ms[1].Time, ClientIP: 7, Country: "ZZ", Host: "all.example", Campaign: "c",
		Obs: core.Observation{Proxied: true, IssuerOrg: "O", IssuerCN: "CN", IssuerOU: "OU", ProductName: "P", KeyBits: 1024, WeakKey: true},
	})
	return ms
}

// TestBatchRoundTrip: every row of a decoded batch expands to the
// measurement that was added, and re-encoding the decode gives the same
// bytes.
func TestBatchRoundTrip(t *testing.T) {
	ms := batchTestMeasurements()
	ms[5].Trace = 99
	enc := batchOf(42, ms).AppendTo(nil)
	var b Batch
	if err := b.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if b.ID != 42 || b.Trace != 99 || len(b.Rows) != len(ms) {
		t.Fatalf("decoded id %d trace %d rows %d", b.ID, b.Trace, len(b.Rows))
	}
	for i, want := range ms {
		got := b.Measurement(i)
		if !got.Time.Equal(want.Time) {
			t.Fatalf("row %d: time %v, want %v", i, got.Time, want.Time)
		}
		got.Time, want.Time, want.Trace = time.Time{}, time.Time{}, 0
		if got != want {
			t.Fatalf("row %d: %+v, want %+v", i, got, want)
		}
	}
	if re := b.AppendTo(nil); !bytes.Equal(re, enc) {
		t.Fatal("re-encoded batch differs from the original bytes")
	}
}

// TestBatchTablesHoldEachEntryOnce: Add puts each distinct tuple and
// country in the tables once while no (host, campaign, host type) key
// has more than maxTupleChain observations, and past that bound only
// adds tuples, never loses a row.
func TestBatchTablesHoldEachEntryOnce(t *testing.T) {
	for _, tc := range []struct {
		n    int
		once bool
	}{{60, true}, {2000, false}} {
		ms := syntheticMeasurements(tc.n, 54)
		obs := map[tupleKey]map[core.Observation]bool{}
		for _, m := range ms {
			k := tupleKey{m.Host, m.Campaign, m.HostCategory}
			if obs[k] == nil {
				obs[k] = map[core.Observation]bool{}
			}
			obs[k][m.Obs] = true
		}
		widest := 0
		for _, o := range obs {
			widest = max(widest, len(o))
		}
		if once := widest <= maxTupleChain; once != tc.once {
			t.Fatalf("%d measurements: widest key has %d observations; fixture no longer exercises once=%v", tc.n, widest, tc.once)
		}
		b := batchOf(1, ms)
		tuples, countries := map[Tuple]bool{}, map[string]bool{}
		for _, tu := range b.Tuples {
			tuples[tu] = true
		}
		for _, c := range b.Countries {
			countries[c] = true
		}
		if len(countries) != len(b.Countries) || tc.once && len(tuples) != len(b.Tuples) {
			t.Fatalf("%d measurements: %d tuples (%d distinct), %d countries (%d distinct)", tc.n, len(b.Tuples), len(tuples), len(b.Countries), len(countries))
		}
		for i := range ms {
			if got := b.Measurement(i); got.Obs != ms[i].Obs || got.Host != ms[i].Host || got.Country != ms[i].Country {
				t.Fatalf("%d measurements: row %d expands to %+v, want %+v", tc.n, i, got, ms[i])
			}
		}
	}
}

// TestBatchDecodeRefusesDamage: a batch cut anywhere, with a byte flipped
// anywhere, or with a byte appended decodes to an error, never a batch.
func TestBatchDecodeRefusesDamage(t *testing.T) {
	enc := batchOf(1, syntheticMeasurements(20, 52)).AppendTo(nil)
	var b Batch
	for cut := 0; cut < len(enc); cut++ {
		if err := b.Decode(enc[:cut]); err == nil {
			t.Fatalf("cut at %d/%d decoded", cut, len(enc))
		}
	}
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x10
		if err := b.Decode(bad); err == nil {
			t.Fatalf("flipped byte %d decoded", i)
		}
	}
	if err := b.Decode(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	for _, tc := range []struct{ name, want string }{{"TFMA", "magic"}, {"TFMB\x02", "version 2"}} {
		bad := append([]byte(tc.name), enc[len(tc.name):]...)
		if err := b.Decode(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%q: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestBatchSplitIsAddPerPart: splitting a batch by shard gives each shard
// exactly the batch Add builds from that shard's rows.
func TestBatchSplitIsAddPerPart(t *testing.T) {
	ms := batchTestMeasurements()
	const n = 3
	b := batchOf(7, ms)
	shardOf := func(host string) int { return len(host) % n }
	part := make([]int, len(b.Tuples))
	for i, tu := range b.Tuples {
		part[i] = shardOf(tu.Host)
	}
	parts := make([]Batch, n)
	b.Split(part, parts)
	for si := range parts {
		var mine []core.Measurement
		for _, m := range ms {
			if shardOf(m.Host) == si {
				mine = append(mine, m)
			}
		}
		if got, want := parts[si].AppendTo(nil), batchOf(7, mine).AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("part %d (%d rows) differs from the batch of its %d measurements", si, len(parts[si].Rows), len(mine))
		}
	}
}

// TestBatchDecodeAllocs: a warm batch decodes with one allocation, the
// copy of its string tables, however many rows it has; the check a
// replica runs before it appends a frame allocates nothing.
func TestBatchDecodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := syntheticMeasurements(64, 53)
	for _, rows := range []int{64, 4096} {
		ms := make([]core.Measurement, rows)
		for i := range ms {
			ms[i] = base[i%len(base)]
		}
		enc := batchOf(1, ms).AppendTo(nil)
		var b Batch
		if allocs := testing.AllocsPerRun(20, func() {
			if err := b.Decode(enc); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("%d rows: Decode allocates %v, want 1", rows, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := b.decode(enc, false); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d rows: the check allocates %v, want 0", rows, allocs)
		}
	}
}
