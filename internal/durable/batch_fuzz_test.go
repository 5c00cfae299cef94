package durable_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"tlsfof/internal/cluster"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
)

// FuzzDecodeBatch drives the batch decoder over arbitrary bytes. It must
// never panic, allocate more than a fixed multiple of its input, or
// disagree with itself: the decode that materializes strings, the check
// that does not, and the expanding cluster.DecodeMeasurementsID accept
// exactly the same inputs, every row expands to the same measurement
// both ways, and an accepted batch re-encodes to bytes that decode to an
// equal batch. Seeds are encoder output: proxied rows, empty strings and
// a tuple table with every string set.
func FuzzDecodeBatch(f *testing.F) {
	ms := durable.SyntheticMeasurements(12, 55)
	empty := []core.Measurement{{Time: ms[0].Time}}
	full := make([]core.Measurement, 12)
	for i := range full {
		full[i] = core.Measurement{
			Time: ms[i].Time, ClientIP: uint32(i), Country: fmt.Sprintf("C%d", i),
			Host: fmt.Sprintf("h%d.example", i), Campaign: fmt.Sprintf("camp-%d", i),
			Obs: core.Observation{
				Proxied: i%2 == 0, IssuerOrg: "Org", IssuerCN: fmt.Sprintf("CN %d", i), IssuerOU: "OU",
				ProductName: "Product", KeyBits: 512 << (i % 3), ChainLen: i % 4,
			},
		}
	}
	for _, seed := range [][]core.Measurement{ms, empty, full, nil} {
		f.Add(cluster.AppendMeasurementsID(nil, 7, seed))
	}
	f.Add([]byte("TFMB"))
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var view durable.Batch
		verr := view.Decode(p)
		expanded, id, eerr := cluster.DecodeMeasurementsID(p)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10+128*uint64(len(p)) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grown)
		}
		var check durable.Batch
		cerr := durable.CheckBatch(&check, p)
		if (verr == nil) != (eerr == nil) || (verr == nil) != (cerr == nil) {
			t.Fatalf("decoders disagree: view %v, expanding %v, check %v", verr, eerr, cerr)
		}
		if verr != nil {
			return
		}
		if id != view.ID || len(expanded) != len(view.Rows) || len(check.Rows) != len(view.Rows) {
			t.Fatalf("expanding decode: id %d, %d rows; view: id %d, %d rows", id, len(expanded), view.ID, len(view.Rows))
		}
		for i := range expanded {
			if got := view.Measurement(i); got != expanded[i] {
				t.Fatalf("row %d: view %+v, expanding %+v", i, got, expanded[i])
			}
		}
		var again durable.Batch
		if err := again.Decode(view.AppendTo(nil)); err != nil {
			t.Fatalf("re-encoded batch refused: %v", err)
		}
		if again.ID != view.ID || again.Trace != view.Trace || !slices.Equal(again.Tuples, view.Tuples) ||
			!slices.Equal(again.Countries, view.Countries) || !slices.Equal(again.Rows, view.Rows) {
			t.Fatal("re-encoded batch decodes to a different batch")
		}
	})
}
