package ingest

// Arena is the batch-scoped allocator behind decode-in-place wire
// decoding (NewArenaDecoder). Certificate DER bytes and chain headers
// land in large recycled blocks instead of one heap object per cert,
// and host names intern to shared strings; the per-report cost on a
// warm arena is zero heap allocations.
//
// Ownership contract: every slice an arena-backed Report carries aliases
// arena memory and is valid only until Reset. A handler therefore
// ingests the whole batch (the collector copies what it keeps — see the
// chaincache clone-on-insert rule) before calling Reset and returning
// the arena to its pool. Nothing downstream of core.Collector.Ingest*
// may retain the DER slices.
type Arena struct {
	block []byte // active byte block; off is the high-water mark
	off   int
	spill [][]byte // exhausted blocks, pinned until Reset

	hdr      [][]byte // active chain-header slab
	hdrOff   int
	hdrSpill [][][]byte

	hosts map[string]string
}

const (
	arenaBlockMin = 64 << 10
	arenaBlockMax = 1 << 20
	arenaHdrMin   = 256
	// arenaHostsMax bounds the host intern table: past it, a host name
	// that is not yet interned decodes as a plain copy, so hostile input
	// cannot grow the table without bound.
	arenaHostsMax = 4096
)

// NewArena returns an empty arena; blocks are allocated on first use and
// survive Reset, so a pooled arena reaches steady state after one batch.
func NewArena() *Arena {
	return &Arena{hosts: make(map[string]string)}
}

// alloc carves n bytes out of the active block, growing geometrically
// (retired blocks stay pinned until Reset so handed-out slices remain
// valid).
func (a *Arena) alloc(n int) []byte {
	if len(a.block)-a.off < n {
		size := arenaBlockMin
		if len(a.block) > 0 {
			size = 2 * len(a.block)
			if size > arenaBlockMax {
				size = arenaBlockMax
			}
		}
		if size < n {
			size = n
		}
		if a.block != nil {
			a.spill = append(a.spill, a.block)
		}
		a.block = make([]byte, size)
		a.off = 0
	}
	b := a.block[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// headers carves an n-entry chain header ([][]byte) out of the header
// slab, same lifetime rules as alloc.
func (a *Arena) headers(n int) [][]byte {
	if len(a.hdr)-a.hdrOff < n {
		size := arenaHdrMin
		if s := 2 * len(a.hdr); s > size {
			size = s
		}
		if size < n {
			size = n
		}
		if a.hdr != nil {
			a.hdrSpill = append(a.hdrSpill, a.hdr)
		}
		a.hdr = make([][]byte, size)
		a.hdrOff = 0
	}
	s := a.hdr[a.hdrOff : a.hdrOff+n : a.hdrOff+n]
	a.hdrOff += n
	return s
}

// internHost returns a stable string for a host name. Interned strings
// are plain copies, not arena references — they survive Reset, which is
// what lets Measurement.Host flow into long-lived aggregates.
func (a *Arena) internHost(b []byte) string {
	if s, ok := a.hosts[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(a.hosts) < arenaHostsMax {
		a.hosts[s] = s
	}
	return s
}

// Reset retires every outstanding slice and rewinds the arena for the
// next batch. The largest byte block and header slab are kept (capacity
// is the point of pooling); header entries are cleared so retired DER
// blocks can be collected. The host intern table survives — hosts
// repeat across batches and the interned strings own their bytes.
func (a *Arena) Reset() {
	a.off = 0
	a.spill = nil
	clear(a.hdr)
	a.hdrOff = 0
	a.hdrSpill = nil
}

// poison overwrites every byte the arena has handed out. Test hook: if
// anything downstream retained an arena slice, its content visibly rots
// and golden-table comparisons catch it.
func (a *Arena) poison(pat byte) {
	for i := range a.block {
		a.block[i] = pat
	}
	for _, b := range a.spill {
		for i := range b {
			b[i] = pat
		}
	}
}
