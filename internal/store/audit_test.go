package store

import (
	"bytes"
	"strings"
	"testing"
)

func TestAuditStoreRecordAndCells(t *testing.T) {
	s := NewAuditStore()
	// Inserted deliberately out of canonical order.
	s.Record(AuditCell{Product: "Zeta", Defect: "revoked", Accepted: true})
	s.Record(AuditCell{Product: "Alpha", Defect: "untrusted-root"})
	s.Record(AuditCell{Product: "Alpha", Defect: "clean", Accepted: true, OfferedVersion: 0x0303})
	s.Record(AuditCell{Product: "Alpha", Defect: "expired", Accepted: true})

	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	cells := s.Cells()
	want := []struct{ product, defect string }{
		{"Alpha", "clean"}, {"Alpha", "expired"}, {"Alpha", "untrusted-root"}, {"Zeta", "revoked"},
	}
	for i, w := range want {
		if cells[i].Product != w.product || cells[i].Defect != w.defect {
			t.Fatalf("cells[%d] = (%s, %s), want (%s, %s)",
				i, cells[i].Product, cells[i].Defect, w.product, w.defect)
		}
	}

	// Last write wins: re-running the battery flips a verdict in place.
	s.Record(AuditCell{Product: "Alpha", Defect: "expired", Accepted: false, Validated: true})
	if s.Len() != 4 {
		t.Fatalf("Len after overwrite = %d, want 4", s.Len())
	}
	for _, c := range s.Cells() {
		if c.Product == "Alpha" && c.Defect == "expired" && (c.Accepted || !c.Validated) {
			t.Fatalf("overwrite did not take: %+v", c)
		}
	}
}

func TestAuditCellsJSONRoundTrip(t *testing.T) {
	s := NewAuditStore()
	s.Record(AuditCell{Product: "P", Defect: "clean", Accepted: true, Validated: true,
		OfferedVersion: 0x0303, RelayedVersion: true})
	s.Record(AuditCell{Product: "P", Defect: "wrong-name", WeakCiphers: true})

	var buf bytes.Buffer
	if err := s.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cells, err := DecodeAuditCells(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("decoded %d cells, want 2", len(cells))
	}
	if got, want := cells, s.Cells(); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("round trip changed cells: got %+v want %+v", got, want)
	}
}

func TestDecodeAuditCellsRejectsIncomplete(t *testing.T) {
	for _, bad := range []string{
		`[{"defect":"clean","accepted":true}]`,
		`[{"product":"P","accepted":true}]`,
		`{"product":"P"}`,
		`not json`,
	} {
		if _, err := DecodeAuditCells(strings.NewReader(bad)); err == nil {
			t.Fatalf("DecodeAuditCells(%q) accepted invalid input", bad)
		}
	}
	if cells, err := DecodeAuditCells(strings.NewReader(`[]`)); err != nil || len(cells) != 0 {
		t.Fatalf("empty array should decode cleanly, got %v, %v", cells, err)
	}
}

func TestAuditDefectRankUnknownLast(t *testing.T) {
	s := NewAuditStore()
	s.Record(AuditCell{Product: "P", Defect: "zzz-custom"})
	s.Record(AuditCell{Product: "P", Defect: "aaa-custom"})
	s.Record(AuditCell{Product: "P", Defect: "revoked"})
	cells := s.Cells()
	if cells[0].Defect != "revoked" || cells[1].Defect != "aaa-custom" || cells[2].Defect != "zzz-custom" {
		t.Fatalf("unknown defects must sort after canonical ones, alphabetically: %+v", cells)
	}
}
