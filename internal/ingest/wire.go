package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"sync"
)

// The upload wire format: where /report takes one chain as PEM (+33%
// size, base64 undone per request), /ingest/batch streams this binary
// framing, many reports per connection:
//
//	stream = magic("TFW3") frame*
//	frame  = trace:uvarint ref:uvarint [entry]      ; entry iff ref = 0
//	entry  = hostLen:uvarint host:bytes certCount:uvarint
//	         (certLen:uvarint der:bytes)*
//
// trace is the report's telemetry trace ID (0 = untraced, one byte). An
// inline entry (ref 0) becomes the stream's next entry (the first is 1)
// while fewer than MaxWireEntries exist, on both ends; ref k repeats entry
// k, in two bytes when untraced.
//
// DER bytes travel untouched, so the decoder hands chains straight to
// core.Observe. The Decoder is streaming: it buffers one frame and the
// entry table, so a single connection can carry an unbounded report
// stream.

// wireMagic begins every stream: "TFW" + format version '3'.
var wireMagic = [4]byte{'T', 'F', 'W', '3'}

// Wire-format limits; hostile clients exist (the /report endpoint bounds
// its uploads the same way).
const (
	// MaxWireHostLen bounds the probed host name (DNS's own limit).
	MaxWireHostLen = 255
	// MaxWireChainCerts bounds certificates per chain; real chains run
	// 1-4, the paper's longest observed substitute chains far fewer
	// than 16.
	MaxWireChainCerts = 16
	// MaxWireCertLen bounds one DER certificate.
	MaxWireCertLen = 256 << 10
	// MaxWireEntries bounds a stream's (host, chain) table.
	MaxWireEntries = 4096
)

// Report is one client upload: the probed host and the certificate chain
// the client actually received, leaf first, plus the probe's telemetry
// trace ID (0 when untraced). Decoded reports that reference one wire
// entry share its Host and ChainDER: treat them as read-only.
type Report struct {
	Host     string
	ChainDER [][]byte
	Trace    uint64
}

// wireEncoder is AppendReports' pooled entry table: a seeded hash of host
// and leaf key → {entry, index of the entry's first report}.
type wireEncoder struct {
	seed    maphash.Seed
	entries map[uint64][2]int32
}

// leafKeyLen is how much of a leaf's tail the encoder hashes.
const leafKeyLen = 64

var encoders = sync.Pool{New: func() any {
	return &wireEncoder{seed: maphash.MakeSeed(), entries: map[uint64][2]int32{}}
}}

// AppendReports appends a complete wire stream (header + one frame per
// report) to dst and returns the extended slice. A caller recycling dst
// across batches allocates nothing once the buffer has grown to the
// working batch size. A repeat is found by hash and confirmed by a byte
// compare of the whole chain; a collision costs a second entry, never a
// wrong reference. The hash reads the host and the leaf's length and
// last leafKeyLen bytes, not the whole leaf: a certificate ends in its
// signature, which differs between any two signed leaves.
func AppendReports(dst []byte, reports []Report) ([]byte, error) {
	e := encoders.Get().(*wireEncoder)
	defer func() { clear(e.entries); encoders.Put(e) }()
	dst = append(dst, wireMagic[:]...)
	n := int32(0) // entries entered, as the decoder counts them
	for i := range reports {
		r := &reports[i]
		if len(r.Host) == 0 || len(r.Host) > MaxWireHostLen {
			return nil, fmt.Errorf("ingest: host length %d outside [1,%d]", len(r.Host), MaxWireHostLen)
		}
		if len(r.ChainDER) == 0 || len(r.ChainDER) > MaxWireChainCerts {
			return nil, fmt.Errorf("ingest: chain of %d certs outside [1,%d]", len(r.ChainDER), MaxWireChainCerts)
		}
		dst = binary.AppendUvarint(dst, r.Trace)
		leaf := r.ChainDER[0]
		sum := maphash.String(e.seed, r.Host) ^ maphash.Bytes(e.seed, leaf[max(0, len(leaf)-leafKeyLen):]) ^ uint64(len(leaf))
		if k, ok := e.entries[sum]; ok && reports[k[1]].Host == r.Host && slices.EqualFunc(reports[k[1]].ChainDER, r.ChainDER, bytes.Equal) {
			dst = binary.AppendUvarint(dst, uint64(k[0]))
			continue
		}
		if n < MaxWireEntries {
			n++
			e.entries[sum] = [2]int32{n, int32(i)}
		}
		dst = append(dst, 0) // ref 0: the entry inline
		dst = binary.AppendUvarint(dst, uint64(len(r.Host)))
		dst = append(dst, r.Host...)
		dst = binary.AppendUvarint(dst, uint64(len(r.ChainDER)))
		for _, der := range r.ChainDER {
			if len(der) == 0 || len(der) > MaxWireCertLen {
				return nil, fmt.Errorf("ingest: certificate of %d bytes outside [1,%d]", len(der), MaxWireCertLen)
			}
			dst = binary.AppendUvarint(dst, uint64(len(der)))
			dst = append(dst, der...)
		}
	}
	return dst, nil
}

// Decoder reads a wire stream one report at a time. Not safe for
// concurrent use.
type Decoder struct {
	r          *bufio.Reader
	readHeader bool
	// arena, when non-nil, receives decoded DER bytes and chain headers
	// in place (see Arena for the lifetime contract); host names intern
	// through it. Nil decodes into per-report heap copies.
	arena *Arena
	// entries is the stream's table; entry, the last report's (0: none).
	entries []Report
	entry   int
	// hostBuf stages the host name before it becomes a string (plain
	// path) or an interned string (arena path): no transient allocation
	// either way.
	hostBuf [MaxWireHostLen]byte
}

// NewArenaDecoder returns a streaming decoder whose reports decode in
// place into a: DER slices and chain headers alias arena memory and are
// valid until a.Reset(). The caller owns the arena lifecycle. A nil arena
// decodes into per-entry heap copies.
func NewArenaDecoder(r io.Reader, a *Arena) *Decoder {
	return &Decoder{r: bufio.NewReader(r), arena: a}
}

// Reset rearms the decoder for a new stream, keeping its read buffer and
// arena binding (the arena itself is not reset — that is the caller's
// batch-lifetime decision) and emptying its entry table. The pooling hook
// for per-request handlers.
func (d *Decoder) Reset(r io.Reader) {
	d.r.Reset(r)
	d.readHeader = false
	clear(d.entries)
	d.entries, d.entry = d.entries[:0], 0
}

// Next returns the next report. It returns io.EOF exactly at a clean
// stream end (after the header, on a frame boundary); a stream truncated
// mid-frame yields io.ErrUnexpectedEOF.
func (d *Decoder) Next() (Report, error) {
	if !d.readHeader {
		// Stage the magic through hostBuf: a local array would escape
		// through the io.ReadFull interface call (one heap allocation
		// per stream), and the host field cannot be in the buffer yet.
		hb := d.hostBuf[:4]
		if _, err := io.ReadFull(d.r, hb); err != nil {
			if errors.Is(err, io.EOF) {
				return Report{}, io.EOF
			}
			return Report{}, fmt.Errorf("ingest: reading wire header: %w", err)
		}
		if [4]byte(hb) != wireMagic {
			return Report{}, fmt.Errorf("ingest: bad wire magic %q (want %q)", hb, wireMagic[:])
		}
		d.readHeader = true
	}

	trace, err := binary.ReadUvarint(d.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Report{}, io.EOF // clean end on frame boundary
		}
		return Report{}, fmt.Errorf("ingest: reading trace id: %w", err)
	}
	ref, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Report{}, fmt.Errorf("ingest: reading entry ref: %w", noEOF(err))
	}
	if ref > uint64(len(d.entries)) {
		return Report{}, fmt.Errorf("ingest: entry ref %d past the stream's %d entries", ref, len(d.entries))
	}
	if d.entry = int(ref); ref > 0 {
		rep := d.entries[ref-1]
		rep.Trace = trace
		return rep, nil
	}
	hostLen, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Report{}, fmt.Errorf("ingest: reading host length: %w", noEOF(err))
	}
	if hostLen == 0 || hostLen > MaxWireHostLen {
		return Report{}, fmt.Errorf("ingest: host length %d outside [1,%d]", hostLen, MaxWireHostLen)
	}
	hostBytes := d.hostBuf[:hostLen]
	if _, err := io.ReadFull(d.r, hostBytes); err != nil {
		return Report{}, fmt.Errorf("ingest: reading host: %w", noEOF(err))
	}
	var host string
	if d.arena != nil {
		host = d.arena.internHost(hostBytes)
	} else {
		host = string(hostBytes)
	}

	certCount, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Report{}, fmt.Errorf("ingest: reading cert count: %w", noEOF(err))
	}
	if certCount == 0 || certCount > MaxWireChainCerts {
		return Report{}, fmt.Errorf("ingest: chain of %d certs outside [1,%d]", certCount, MaxWireChainCerts)
	}
	var chain [][]byte
	if d.arena != nil {
		chain = d.arena.headers(int(certCount))
	} else {
		chain = make([][]byte, certCount)
	}
	for i := range chain {
		certLen, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Report{}, fmt.Errorf("ingest: reading cert length: %w", noEOF(err))
		}
		if certLen == 0 || certLen > MaxWireCertLen {
			return Report{}, fmt.Errorf("ingest: certificate of %d bytes outside [1,%d]", certLen, MaxWireCertLen)
		}
		var der []byte
		if d.arena != nil {
			der = d.arena.alloc(int(certLen))
		} else {
			der = make([]byte, certLen)
		}
		if _, err := io.ReadFull(d.r, der); err != nil {
			return Report{}, fmt.Errorf("ingest: reading certificate: %w", noEOF(err))
		}
		chain[i] = der
	}
	rep := Report{Host: host, ChainDER: chain, Trace: trace}
	if len(d.entries) < MaxWireEntries {
		d.entries = append(d.entries, rep)
		d.entry = len(d.entries)
	}
	return rep, nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a frame, running out
// of bytes is truncation, never a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
