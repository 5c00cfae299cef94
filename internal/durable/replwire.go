package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Replication wire (DESIGN.md §12). A tail response is one stream:
//
//	stream = magic "TFR1" | frame* | end
//	frame  = 'F' | seq uvarint | len uvarint | crc32c(payload) uint32le | payload
//	end    = 'E'
//
// A frame payload is one batch (batch.go) — the exact bytes the source
// WAL frame holds at that sequence. A follower checks it and appends it
// as it came (Log.AppendEncoded), so a replica log is byte-identical to
// its source. There is no snapshot record:
// a cluster log never compacts, so every sequence a follower can ask for
// is still a frame (ServeTail refuses the rest with ErrTailCompacted).
// The end marker distinguishes a complete response from a connection cut
// mid-stream: a decoder that hits physical EOF without seeing 'E' reports
// truncation, and the follower resumes from its last durable sequence on
// the next poll. CRCs use the Castagnoli polynomial, as everywhere else
// in this package.
const (
	replMagic = "TFR1"

	// ReplFrame and ReplEnd are the record type bytes.
	ReplFrame byte = 'F'
	ReplEnd   byte = 'E'
)

// ErrReplTruncated reports a replication stream that ended without a
// clean end marker — a connection cut or a torn response. Records decoded
// before the cut are intact (each carries its own CRC).
var ErrReplTruncated = fmt.Errorf("durable: replication stream truncated: %w", io.ErrUnexpectedEOF)

// ReplRecord is one decoded replication record. For ReplFrame, Seq is the
// WAL sequence and Payload the frame's batch; for ReplEnd both are zero.
type ReplRecord struct {
	Type    byte
	Seq     uint64
	Payload []byte
}

// AppendReplHeader appends the stream magic.
func AppendReplHeader(dst []byte) []byte {
	return append(dst, replMagic...)
}

// AppendReplFrame appends one frame record carrying the batch stored at
// seq.
func AppendReplFrame(dst []byte, seq uint64, payload []byte) []byte {
	dst = append(dst, ReplFrame)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// AppendReplEnd appends the clean end marker.
func AppendReplEnd(dst []byte) []byte {
	return append(dst, ReplEnd)
}

// ReplDecoder decodes a replication stream incrementally. Next returns
// records until the clean end marker (io.EOF) or an error; a stream that
// physically ends mid-record or without the end marker yields
// ErrReplTruncated, never a partial record.
type ReplDecoder struct {
	r       *bufio.Reader
	started bool
	done    bool
	buf     []byte
}

// NewReplDecoder wraps r. The stream magic is checked on the first Next.
func NewReplDecoder(r io.Reader) *ReplDecoder {
	return &ReplDecoder{r: bufio.NewReaderSize(r, 1<<16)}
}

// Reset points the decoder at a new stream, keeping its buffers.
func (d *ReplDecoder) Reset(r io.Reader) {
	d.r.Reset(r)
	d.started, d.done = false, false
}

// Next returns the next record. The record's payload is only valid until
// the following Next call. io.EOF means the stream ended cleanly.
func (d *ReplDecoder) Next() (ReplRecord, error) {
	if d.done {
		return ReplRecord{}, io.EOF
	}
	if !d.started {
		var magic [4]byte
		if _, err := io.ReadFull(d.r, magic[:]); err != nil {
			return ReplRecord{}, truncated(err)
		}
		if string(magic[:]) != replMagic {
			return ReplRecord{}, fmt.Errorf("durable: bad replication stream magic %q", magic)
		}
		d.started = true
	}
	typ, err := d.r.ReadByte()
	if err != nil {
		return ReplRecord{}, truncated(err)
	}
	switch typ {
	case ReplEnd:
		d.done = true
		return ReplRecord{}, io.EOF
	case ReplFrame:
	default:
		return ReplRecord{}, fmt.Errorf("durable: replication record type 0x%02x unknown", typ)
	}
	seq, err := binary.ReadUvarint(d.r)
	if err != nil {
		return ReplRecord{}, truncated(err)
	}
	size, err := binary.ReadUvarint(d.r)
	if err != nil {
		return ReplRecord{}, truncated(err)
	}
	if size == 0 || size > MaxFramePayload {
		return ReplRecord{}, fmt.Errorf("durable: replication record length %d out of bounds", size)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(d.r, crcb[:]); err != nil {
		return ReplRecord{}, truncated(err)
	}
	if cap(d.buf) < int(size) {
		d.buf = make([]byte, size)
	}
	d.buf = d.buf[:size]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return ReplRecord{}, truncated(err)
	}
	if crc32.Checksum(d.buf, crcTable) != binary.LittleEndian.Uint32(crcb[:]) {
		return ReplRecord{}, fmt.Errorf("durable: replication record CRC mismatch at seq %d", seq)
	}
	return ReplRecord{Type: typ, Seq: seq, Payload: d.buf}, nil
}

// truncated maps a physical end-of-stream onto ErrReplTruncated; other
// read errors pass through.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrReplTruncated
	}
	return err
}
