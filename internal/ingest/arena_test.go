package ingest

// Tests for the decode-in-place arena: equivalence with the plain
// (per-report-copy) decoder, and proof that nothing downstream of the
// collector retains an arena slice across Reset — the lifetime contract
// every pooled HTTP handler depends on.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"tlsfof/internal/classify"
	"tlsfof/internal/core"
)

// decodeUpTo drains a wire stream, returning the decoded reports and
// the terminal error (io.EOF for a clean end). The cap mirrors the
// fuzz harness's bound on hostile report counts.
func decodeUpTo(dec *Decoder, limit int) ([]Report, error, bool) {
	var out []Report
	for {
		rep, err := dec.Next()
		if err != nil {
			return out, err, false
		}
		out = append(out, rep)
		if len(out) > limit {
			return out, nil, true
		}
	}
}

// TestArenaDecoderMatchesPlain: the arena decoder must be observably
// identical to the plain decoder — same reports, same terminal error —
// and stay identical when the arena is recycled (poisoned, then Reset)
// between streams, proving no second-stream report depends on
// first-stream arena memory.
func TestArenaDecoderMatchesPlain(t *testing.T) {
	reports := []Report{
		{Host: "one.example", ChainDER: [][]byte{bytes.Repeat([]byte{0x30}, 600), {0x01, 0x02}}, Trace: 7},
		{Host: "two.example", ChainDER: [][]byte{bytes.Repeat([]byte{0x41}, 1200)}},
		{Host: "one.example", ChainDER: [][]byte{{0xff}}},
		{Host: "two.example", ChainDER: [][]byte{bytes.Repeat([]byte{0x41}, 1200)}, Trace: 8}, // ref 2
	}
	stream, err := AppendReports(nil, reports)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainErr, _ := decodeUpTo(NewArenaDecoder(bytes.NewReader(stream), nil), 1<<12)

	a := NewArena()
	for round := 0; round < 3; round++ {
		got, gotErr, _ := decodeUpTo(NewArenaDecoder(bytes.NewReader(stream), a), 1<<12)
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("round %d: arena decode diverged from plain decode", round)
		}
		if (gotErr == nil) != (plainErr == nil) || (gotErr != nil && gotErr.Error() != plainErr.Error()) {
			t.Fatalf("round %d: arena err %v, plain err %v", round, gotErr, plainErr)
		}
		a.poison(0xAA)
		a.Reset()
	}
}

// TestArenaRecycleKeepsCollectorStateValid drives arena-decoded reports
// into a collector with an observation cache, then poisons and recycles
// the arena and ingests the same stream again. The chaincache clones
// observed chains on insert; if it instead retained the arena-aliased
// DER slices, the poisoned bytes would no longer match on the second
// pass and every lookup would degrade to a collision + re-derivation.
// The pin: second pass is all cache hits, zero collisions, one
// derivation total, and the measurements are byte-identical to a
// plain-decode control.
func TestArenaRecycleKeepsCollectorStateValid(t *testing.T) {
	const host = "retain.example"
	chain := testChain(t, host)
	var reports []Report
	for i := 0; i < 3; i++ {
		reports = append(reports, Report{Host: host, ChainDER: chain})
	}
	stream, err := AppendReports(nil, reports)
	if err != nil {
		t.Fatal(err)
	}

	newCollector := func(out *[]core.Measurement) *core.Collector {
		col := core.NewCollector(classify.NewClassifier(), nil, core.SinkFunc(func(m core.Measurement) {
			*out = append(*out, m)
		}))
		col.Clock = func() time.Time { return time.Time{} }
		col.SetAuthoritative(host, chain)
		return col
	}
	ingestAll := func(t *testing.T, dec *Decoder, col *core.Collector) {
		t.Helper()
		for {
			rep, err := dec.Next()
			if err != nil {
				break
			}
			if _, err := col.Ingest(0x0a000001, rep.Host, rep.ChainDER, "arena-test"); err != nil {
				t.Fatal(err)
			}
		}
	}

	var control []core.Measurement
	ingestAll(t, NewArenaDecoder(bytes.NewReader(stream), nil), newCollector(&control))

	var got []core.Measurement
	col := newCollector(&got)
	cache := core.NewObservationCache(0, 0)
	col.Cache = cache
	a := NewArena()
	dec := NewArenaDecoder(bytes.NewReader(stream), a)
	ingestAll(t, dec, col)
	a.poison(0xAA) // rot every byte the first pass handed out
	a.Reset()
	dec.Reset(bytes.NewReader(stream))
	ingestAll(t, dec, col)

	st := cache.Stats()
	if st.Collisions != 0 {
		t.Fatalf("cache collisions = %d: cached entry no longer matches its chain — it retained arena memory", st.Collisions)
	}
	if st.Derives != 1 {
		t.Fatalf("cache derives = %d, want 1 (one distinct host/chain pair)", st.Derives)
	}
	if st.Hits != uint64(2*len(reports)-1) {
		t.Fatalf("cache hits = %d, want %d", st.Hits, 2*len(reports)-1)
	}
	want := append(append([]core.Measurement(nil), control...), control...)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("arena-decoded ingest diverged from plain-decode control")
	}
}

// FuzzArenaDecodeMatchesPlain holds the arena decoder to the plain
// decoder's observable behavior on arbitrary streams, across an arena
// recycle: both decode rounds over a poisoned-then-Reset arena must
// reproduce the plain decoder's reports and terminal error exactly.
func FuzzArenaDecodeMatchesPlain(f *testing.F) {
	chain := [][]byte{bytes.Repeat([]byte{0x30}, 900), {0x30, 0x01}}
	valid, err := AppendReports(nil, []Report{
		{Host: "example.com", ChainDER: chain, Trace: 99},
		{Host: "byu.edu", ChainDER: [][]byte{{0x01}}},
		{Host: "example.com", ChainDER: chain, Trace: 100}, // ref 1
		{Host: "byu.edu", ChainDER: [][]byte{{0x01}}},      // ref 2
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)-12])
	f.Add([]byte("TFW3\x00\x00\x01a\x01\x01\x30\x00\x02")) // reference past the table
	f.Add([]byte("TFW2"))
	f.Add([]byte{})
	f.Add(append([]byte("TFW3"), 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f))

	f.Fuzz(func(t *testing.T, stream []byte) {
		plain, plainErr, capped := decodeUpTo(NewArenaDecoder(bytes.NewReader(stream), nil), 1<<12)
		if capped {
			return
		}
		a := NewArena()
		for round := 0; round < 2; round++ {
			got, gotErr, capped := decodeUpTo(NewArenaDecoder(bytes.NewReader(stream), a), 1<<12)
			if capped {
				t.Fatal("arena decoder emitted more reports than the plain decoder")
			}
			if len(got) != len(plain) {
				t.Fatalf("round %d: arena decoded %d reports, plain %d", round, len(got), len(plain))
			}
			for i := range got {
				if got[i].Host != plain[i].Host || got[i].Trace != plain[i].Trace ||
					!reflect.DeepEqual(got[i].ChainDER, plain[i].ChainDER) {
					t.Fatalf("round %d: report %d differs between arena and plain decode", round, i)
				}
			}
			if (gotErr == nil) != (plainErr == nil) || (gotErr != nil && gotErr.Error() != plainErr.Error()) {
				t.Fatalf("round %d: arena err %v, plain err %v", round, gotErr, plainErr)
			}
			a.poison(0xAA)
			a.Reset()
		}
	})
}
