package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The upload wire format. The seed's /report endpoint made every client
// re-encode its captured DER chain as concatenated PEM (+33% size) and
// made reportd undo that per request; at fleet scale the base64 round
// trip is pure waste. The /ingest/batch endpoint instead streams this
// compact binary framing, many reports per connection:
//
//	stream = magic("TFW2") frame*
//	frame  = trace:uvarint hostLen:uvarint host:bytes certCount:uvarint
//	         (certLen:uvarint der:bytes)*
//
// TFW2 prefixes each frame with a telemetry trace ID (0 = untraced: one
// byte, so the cost of the field is a single byte per frame for fleets
// that don't trace).
//
// DER bytes travel untouched, so the decoder hands chains straight to
// core.Observe. The Decoder is streaming: it never buffers more than one
// frame, so a single connection can carry an unbounded report stream.

// wireMagic begins every stream: "TFW" + format version '2'.
var wireMagic = [4]byte{'T', 'F', 'W', '2'}

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
)

// Report is one client upload: the probed host and the certificate chain
// the client actually received, leaf first, plus the probe's telemetry
// trace ID (0 when untraced).
type Report struct {
	Host     string
	ChainDER [][]byte
	Trace    uint64
}

// Encoder writes reports in the binary wire format. Not safe for
// concurrent use.
type Encoder struct {
	w           *bufio.Writer
	wroteHeader bool
	scratch     []byte
}

// NewEncoder returns an encoder writing the wire stream to w. Call Flush
// when done.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w)}
}

// Encode appends one report frame (writing the stream header first if
// this is the first frame).
func (e *Encoder) Encode(r Report) error {
	if len(r.Host) == 0 || len(r.Host) > MaxWireHostLen {
		return fmt.Errorf("ingest: host length %d outside [1,%d]", len(r.Host), MaxWireHostLen)
	}
	if len(r.ChainDER) == 0 || len(r.ChainDER) > MaxWireChainCerts {
		return fmt.Errorf("ingest: chain of %d certs outside [1,%d]", len(r.ChainDER), MaxWireChainCerts)
	}
	for _, der := range r.ChainDER {
		if len(der) == 0 || len(der) > MaxWireCertLen {
			return fmt.Errorf("ingest: certificate of %d bytes outside [1,%d]", len(der), MaxWireCertLen)
		}
	}
	if !e.wroteHeader {
		if _, err := e.w.Write(wireMagic[:]); err != nil {
			return err
		}
		e.wroteHeader = true
	}
	e.scratch = binary.AppendUvarint(e.scratch[:0], r.Trace)
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(r.Host)))
	e.scratch = append(e.scratch, r.Host...)
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(r.ChainDER)))
	if _, err := e.w.Write(e.scratch); err != nil {
		return err
	}
	for _, der := range r.ChainDER {
		e.scratch = binary.AppendUvarint(e.scratch[:0], uint64(len(der)))
		if _, err := e.w.Write(e.scratch); err != nil {
			return err
		}
		if _, err := e.w.Write(der); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered frames to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// EncodeReports is a convenience one-shot encoding of reports into a
// complete wire stream.
func EncodeReports(reports []Report) ([]byte, error) {
	return AppendReports(nil, reports)
}

// AppendReports appends a complete wire stream (header + one frame per
// report) to dst and returns the extended slice — the zero-realloc
// encoding path: a caller recycling dst across batches allocates nothing
// once the buffer has grown to the working batch size. The validation is
// identical to Encoder.Encode.
func AppendReports(dst []byte, reports []Report) ([]byte, error) {
	dst = append(dst, wireMagic[:]...)
	for _, r := range reports {
		if len(r.Host) == 0 || len(r.Host) > MaxWireHostLen {
			return nil, fmt.Errorf("ingest: host length %d outside [1,%d]", len(r.Host), MaxWireHostLen)
		}
		if len(r.ChainDER) == 0 || len(r.ChainDER) > MaxWireChainCerts {
			return nil, fmt.Errorf("ingest: chain of %d certs outside [1,%d]", len(r.ChainDER), MaxWireChainCerts)
		}
		dst = binary.AppendUvarint(dst, r.Trace)
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
	// hostBuf stages the host name before it becomes a string (plain
	// path) or an interned string (arena path): no transient allocation
	// either way.
	hostBuf [MaxWireHostLen]byte
}

// NewDecoder returns a streaming decoder over r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// NewArenaDecoder returns a streaming decoder whose reports decode in
// place into a: DER slices and chain headers alias arena memory and are
// valid until a.Reset(). The caller owns the arena lifecycle.
func NewArenaDecoder(r io.Reader, a *Arena) *Decoder {
	return &Decoder{r: bufio.NewReader(r), arena: a}
}

// Reset rearms the decoder for a new stream, keeping its read buffer and
// arena binding (the arena itself is not reset — that is the caller's
// batch-lifetime decision). The pooling hook for per-request handlers.
func (d *Decoder) Reset(r io.Reader) {
	d.r.Reset(r)
	d.readHeader = false
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
	return Report{Host: host, ChainDER: chain, Trace: trace}, nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a frame, running out
// of bytes is truncation, never a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
