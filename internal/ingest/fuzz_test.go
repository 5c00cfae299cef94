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
	seed, err := AppendReports(nil, []Report{
		{Host: "example.com", ChainDER: [][]byte{bytes.Repeat([]byte{0x30}, 900), {0x30, 0x01}}},
		{Host: "byu.edu", ChainDER: [][]byte{{0x01}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // truncated mid-frame
	f.Add([]byte("TFW1"))     // retired version: must be refused, never panic
	f.Add([]byte("TFW0"))     // wrong version
	f.Add([]byte{})
	// Hostile uvarints: huge host length, huge cert count, huge cert len.
	f.Add([]byte("TFW1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add(append(append([]byte("TFW1"), 0x01, 'a'), 0xff, 0xff, 0xff, 0x0f))
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
			if len(reports) > 1<<12 {
				t.Fatalf("unbounded report stream from %d input bytes", len(stream))
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
