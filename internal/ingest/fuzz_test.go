package ingest

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeReports drives the streaming wire decoder over arbitrary
// bytes: it must terminate with a clean EOF or an explicit error —
// never panic, never allocate beyond the wire-format bounds — and any
// stream it fully accepts must re-encode and re-decode to the same
// reports.
func FuzzDecodeReports(f *testing.F) {
	chain := [][]byte{bytes.Repeat([]byte{0x30}, 900), {0x30, 0x01}}
	seed, err := AppendReports(nil, []Report{
		{Host: "example.com", ChainDER: chain},
		{Host: "byu.edu", ChainDER: [][]byte{{0x01}}},
		{Host: "example.com", ChainDER: chain, Trace: 5}, // ref 1
		{Host: "byu.edu", ChainDER: [][]byte{{0x01}}},    // ref 2
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-1])                              // truncated inside a reference frame
	f.Add(seed[:len(seed)-7])                              // truncated mid-entry
	f.Add([]byte("TFW3\x00\x01"))                          // reference into an empty table
	f.Add([]byte("TFW3\x00\x00\x01a\x01\x01\x30\x00\x02")) // reference past the table
	f.Add([]byte("TFW2"))                                  // retired version: must be refused, never panic
	f.Add([]byte("TFW0"))                                  // wrong version
	f.Add([]byte{})
	// Hostile uvarints: huge ref, huge host length, huge cert len.
	f.Add([]byte("TFW3\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("TFW3\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add(append([]byte("TFW3\x00\x00\x01a\x01"), 0xff, 0xff, 0xff, 0x0f))
	f.Fuzz(func(t *testing.T, stream []byte) {
		dec := NewArenaDecoder(bytes.NewReader(stream), nil)
		var reports []Report
		for {
			r, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // explicit rejection is a pass
			}
			if len(r.Host) == 0 || len(r.Host) > MaxWireHostLen ||
				len(r.ChainDER) == 0 || len(r.ChainDER) > MaxWireChainCerts {
				t.Fatalf("decoder emitted an out-of-bounds report: %d-byte host, %d certs", len(r.Host), len(r.ChainDER))
			}
			for _, der := range r.ChainDER {
				if len(der) == 0 || len(der) > MaxWireCertLen {
					t.Fatalf("decoder emitted a %d-byte certificate", len(der))
				}
			}
			reports = append(reports, r)
			// A frame is at least two bytes (trace, ref).
			if len(reports) > len(stream)/2 {
				t.Fatalf("%d reports from %d input bytes", len(reports), len(stream))
			}
		}
		if len(reports) == 0 {
			return
		}
		// Clean streams must round-trip.
		out, err := AppendReports(nil, reports)
		if err != nil {
			t.Fatalf("re-encode of decoded reports: %v", err)
		}
		dec2 := NewArenaDecoder(bytes.NewReader(out), nil)
		for i := range reports {
			r2, err := dec2.Next()
			if err != nil {
				t.Fatalf("re-decode report %d: %v", i, err)
			}
			if r2.Host != reports[i].Host || !reflect.DeepEqual(r2.ChainDER, reports[i].ChainDER) {
				t.Fatalf("report %d drifted through round trip", i)
			}
		}
		if _, err := dec2.Next(); err != io.EOF {
			t.Fatalf("re-decoded stream has trailing data: %v", err)
		}
	})
}
