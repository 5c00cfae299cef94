package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// FuzzDecodeBatch drives the batch decoder over arbitrary bytes. It must
// never panic, allocate more than a fixed multiple of its input, or
// disagree with itself: the decode that materializes strings and the
// check that does not accept exactly the same inputs with the same rows,
// and an accepted batch re-encodes to bytes that decode to an equal
// batch. Seeds are encoder output: proxied rows, empty strings, a tuple
// table with every string set and a weighted (version-2) batch.
func FuzzDecodeBatch(f *testing.F) {
	ms := batchStream(12, 55)
	empty := []Measurement{{Time: ms[0].Time}}
	full := make([]Measurement, 12)
	for i := range full {
		full[i] = Measurement{
			Time: ms[i].Time, ClientIP: uint32(i), Country: fmt.Sprintf("C%d", i),
			Host: fmt.Sprintf("h%d.example", i), Campaign: fmt.Sprintf("camp-%d", i),
			Obs: Observation{
				Proxied: i%2 == 0, IssuerOrg: "Org", IssuerCN: fmt.Sprintf("CN %d", i), IssuerOU: "OU",
				ProductName: "Product", KeyBits: 512 << (i % 3), ChainLen: i % 4,
			},
		}
	}
	for _, seed := range [][]Measurement{ms, empty, full, nil} {
		f.Add(batchOf(7, seed).AppendTo(nil))
	}
	f.Add(weightedBatch(7, full).AppendTo(nil))
	f.Add([]byte("TFMB"))
	var view, check, again Batch
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		verr := view.Decode(p)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10+128*uint64(len(p)) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grown)
		}
		cerr := check.Check(p)
		if (verr == nil) != (cerr == nil) {
			t.Fatalf("decoders disagree: decode %v, check %v", verr, cerr)
		}
		if verr != nil {
			return
		}
		if check.ID != view.ID || check.Trace != view.Trace || !slices.Equal(check.Rows, view.Rows) {
			t.Fatalf("check: id %d, %d rows; decode: id %d, %d rows", check.ID, len(check.Rows), view.ID, len(view.Rows))
		}
		if err := again.Decode(view.AppendTo(nil)); err != nil {
			t.Fatalf("re-encoded batch refused: %v", err)
		}
		if again.ID != view.ID || again.Trace != view.Trace || !slices.Equal(again.Tuples, view.Tuples) ||
			!slices.Equal(again.Countries, view.Countries) || !slices.Equal(again.Rows, view.Rows) {
			t.Fatal("re-encoded batch decodes to a different batch")
		}
	})
}
