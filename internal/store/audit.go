package store

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// AuditDefects is the canonical battery column order: the clean control
// first, then the five defect axes in internal/proxyengine's constant
// order. Renderers and the conformance test iterate it so every artifact
// agrees on layout.
var AuditDefects = []string{
	"clean", "expired", "self-signed", "wrong-name", "untrusted-root", "revoked",
}

// AuditCell is one (product, defect) verdict from the hostile-origin
// battery: did the product let the splice complete, and how did it
// negotiate upstream while doing so. Cells travel as JSON between
// cmd/audit and reportd's /audit/ingest.
type AuditCell struct {
	Product string `json:"product"`
	// Defect names the battery column ("clean" or an AuditDefects entry).
	Defect string `json:"defect"`
	// Accepted: the client handshake through the product completed and a
	// forged capture was recorded — the product tolerated the defect.
	Accepted bool `json:"accepted"`
	// Validated records whether the product inspects origin chains at all.
	Validated bool `json:"validated"`
	// OfferedVersion is the TLS version the product offered on its
	// origin-facing hello for this cell (0 when the origin saw none).
	OfferedVersion uint16 `json:"offered_version"`
	// WeakCiphers: the upstream offer included RC4/3DES.
	WeakCiphers bool `json:"weak_ciphers"`
	// RelayedVersion: on the relay-detection probe the product echoed the
	// client's (older) version upstream instead of its own maximum.
	// Recorded on the clean cell only.
	RelayedVersion bool `json:"relayed_version,omitempty"`
}

// AuditStore accumulates battery cells keyed by (product, defect),
// last-write-wins — re-running a battery overwrites its grid in place.
// It is deliberately separate from DB: audit verdicts are a different
// shape from proxy-prevalence aggregates and do not participate in the
// snapshot/WAL codec.
type AuditStore struct {
	mu    sync.Mutex
	cells map[string]AuditCell // key: product + "\x00" + defect
}

// NewAuditStore returns an empty audit grid.
func NewAuditStore() *AuditStore {
	return &AuditStore{cells: make(map[string]AuditCell)}
}

func auditKey(product, defect string) string { return product + "\x00" + defect }

// Record stores one cell verdict.
func (s *AuditStore) Record(c AuditCell) {
	s.mu.Lock()
	s.cells[auditKey(c.Product, c.Defect)] = c
	s.mu.Unlock()
}

// Len reports how many cells are recorded.
func (s *AuditStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// auditDefectRank orders defects by the canonical column order, unknowns
// last (alphabetically via the stable sort tie-break on the full key).
func auditDefectRank(defect string) int {
	for i, d := range AuditDefects {
		if d == defect {
			return i
		}
	}
	return len(AuditDefects)
}

// Cells snapshots the grid sorted by product name then canonical defect
// order — the deterministic iteration order every renderer uses.
func (s *AuditStore) Cells() []AuditCell {
	s.mu.Lock()
	out := make([]AuditCell, 0, len(s.cells))
	for _, c := range s.cells {
		out = append(out, c)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Product != out[j].Product {
			return out[i].Product < out[j].Product
		}
		ri, rj := auditDefectRank(out[i].Defect), auditDefectRank(out[j].Defect)
		if ri != rj {
			return ri < rj
		}
		return out[i].Defect < out[j].Defect
	})
	return out
}

// EncodeJSON writes the grid as a JSON array in canonical order.
func (s *AuditStore) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s.Cells())
}

// DecodeAuditCells parses a JSON array of cells (the /audit/ingest wire
// format), rejecting cells without a product or defect name.
func DecodeAuditCells(r io.Reader) ([]AuditCell, error) {
	var cells []AuditCell
	if err := json.NewDecoder(r).Decode(&cells); err != nil {
		return nil, fmt.Errorf("store: decode audit cells: %w", err)
	}
	for i := range cells {
		if cells[i].Product == "" || cells[i].Defect == "" {
			return nil, fmt.Errorf("store: audit cell %d missing product or defect", i)
		}
	}
	return cells, nil
}
