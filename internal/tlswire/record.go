package tlswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// TLS record content types (RFC 5246 §6.2.1).
const (
	RecordAlert     uint8 = 21
	RecordHandshake uint8 = 22
)

// Protocol versions as they appear on the wire.
const (
	VersionSSL30 uint16 = 0x0300
	VersionTLS10 uint16 = 0x0301
	VersionTLS11 uint16 = 0x0302
	VersionTLS12 uint16 = 0x0303
)

// VersionName returns the conventional name for a wire version.
func VersionName(v uint16) string {
	switch v {
	case VersionSSL30:
		return "SSLv3"
	case VersionTLS10:
		return "TLSv1.0"
	case VersionTLS11:
		return "TLSv1.1"
	case VersionTLS12:
		return "TLSv1.2"
	default:
		return fmt.Sprintf("0x%04x", v)
	}
}

// maxRecordPayload is the record-layer plaintext limit (RFC 5246 §6.2.1).
const maxRecordPayload = 16384

// recordHeaderLen is the fixed record header size.
const recordHeaderLen = 5

// Record is one TLS record. Payload aliases the reader's internal buffer
// and is valid only until the next ReadRecord call.
type Record struct {
	Type    uint8
	Version uint16
	Payload []byte
}

// ErrRecordTooLarge is returned for records whose declared length exceeds
// the protocol maximum (plus slack for the explicit-IV/MAC overhead of
// encrypted records, which we never read but must not choke on).
var ErrRecordTooLarge = errors.New("tlswire: record length exceeds maximum")

// RecordReader reads TLS records from an underlying stream, reusing one
// internal buffer.
type RecordReader struct {
	r      io.Reader
	header [recordHeaderLen]byte
	buf    []byte
}

// NewRecordReader wraps r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{r: r, buf: make([]byte, 0, 4096)}
}

// Reset rebinds the reader to a new stream, keeping its buffer — the
// zero-realloc path for per-connection reader reuse.
func (rr *RecordReader) Reset(r io.Reader) { rr.r = r }

// ReadRecord reads the next record into rec. The record payload aliases
// the reader's buffer.
func (rr *RecordReader) ReadRecord(rec *Record) error {
	if _, err := io.ReadFull(rr.r, rr.header[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("tlswire: truncated record header: %w", err)
		}
		return err
	}
	length := int(binary.BigEndian.Uint16(rr.header[3:5]))
	if length > maxRecordPayload+2048 {
		return ErrRecordTooLarge
	}
	if cap(rr.buf) < length {
		rr.buf = make([]byte, length)
	}
	rr.buf = rr.buf[:length]
	if _, err := io.ReadFull(rr.r, rr.buf); err != nil {
		return fmt.Errorf("tlswire: truncated record body (want %d bytes): %w", length, err)
	}
	rec.Type = rr.header[0]
	rec.Version = binary.BigEndian.Uint16(rr.header[1:3])
	rec.Payload = rr.buf
	return nil
}

// Alert severities and the descriptions the probe path uses.
const (
	AlertLevelWarning uint8 = 1
	AlertLevelFatal   uint8 = 2

	AlertCloseNotify      uint8 = 0
	AlertUnexpectedMsg    uint8 = 10
	AlertHandshakeFailure uint8 = 40
	AlertInternalError    uint8 = 80
)

// Alert is a decoded alert record.
type Alert struct {
	Level       uint8
	Description uint8
}

// ParseAlert decodes an alert record payload.
func ParseAlert(payload []byte) (Alert, error) {
	if len(payload) < 2 {
		return Alert{}, fmt.Errorf("tlswire: alert record of %d bytes", len(payload))
	}
	return Alert{Level: payload[0], Description: payload[1]}, nil
}

// WriteAlert sends one alert record in one Write, so one segment on a
// TCP_NODELAY connection.
func WriteAlert(w io.Writer, version uint16, a Alert) error {
	var rec [recordHeaderLen + 2]byte
	if _, err := w.Write(AppendAlert(rec[:0], version, a)); err != nil {
		return fmt.Errorf("tlswire: write alert: %w", err)
	}
	return nil
}

// AppendAlert appends one framed alert record to dst — the zero-realloc
// variant of WriteAlert for callers holding scratch.
func AppendAlert(dst []byte, version uint16, a Alert) []byte {
	return append(dst, RecordAlert, byte(version>>8), byte(version), 0, 2, a.Level, a.Description)
}

// MaxHandshakeLen bounds the declared length of one handshake message.
// The 3-byte length field can claim up to 16MB−1; a hostile peer that
// sends such a prefix must not be able to make the reader buffer (or
// even try to buffer) anything near that. The bound is checked before
// the reassembly loop buffers the body, so the cost of a hostile length
// prefix is one record, not one allocation per claimed megabyte. Real
// handshake messages top out at the certificate chain, far below 1MiB.
const MaxHandshakeLen = 1 << 20

// maxEmptyHandshakeRecords bounds consecutive zero-length handshake
// records. RFC 5246 permits empty fragments, but a peer streaming them
// forever would otherwise spin the reassembly loop without progress —
// a livelock the fault matrix's hostile peers exposed.
const maxEmptyHandshakeRecords = 4

// HandshakeReader reassembles handshake messages that may span record
// boundaries (RFC 5246 §6.2.1 permits arbitrary fragmentation). It owns
// one reassembly buffer that is compacted and reused across messages and
// (via Reset) across connections, so a steady-state handshake stream
// performs zero allocations.
type HandshakeReader struct {
	rr  *RecordReader
	rec Record
	// buf holds record payload bytes not yet returned; off marks the
	// prefix consumed by previous Next calls, reclaimed by compaction at
	// the start of the next call.
	buf []byte
	off int
	// empty counts consecutive zero-length handshake records (see
	// maxEmptyHandshakeRecords).
	empty int
	// LastAlert records the most recent alert seen instead of a handshake
	// message; Next returns ErrAlertReceived when one arrives.
	LastAlert Alert
}

// ErrAlertReceived is returned by Next when the peer sends an alert instead
// of a handshake message. The alert itself is in LastAlert.
var ErrAlertReceived = errors.New("tlswire: received alert")

// NewHandshakeReader wraps a record reader.
func NewHandshakeReader(rr *RecordReader) *HandshakeReader {
	return &HandshakeReader{rr: rr}
}

// Reset rebinds the reader to a new record reader, keeping its reassembly
// buffer and discarding any pending bytes and alert state.
func (hr *HandshakeReader) Reset(rr *RecordReader) {
	hr.rr = rr
	hr.buf = hr.buf[:0]
	hr.off = 0
	hr.empty = 0
	hr.LastAlert = Alert{}
}

// Next returns the next complete handshake message: its type byte and body
// (excluding the 4-byte message header). The body aliases the reader's
// reassembly buffer and is valid only until the next Next call; the
// Parse* functions copy every field that outlives the message, so parsing
// the body before the next call needs no defensive copy.
func (hr *HandshakeReader) Next() (msgType uint8, body []byte, err error) {
	// Reclaim the prefix consumed by the previous message so the buffer's
	// capacity is reused instead of regrown — the previously returned body
	// is dead by contract.
	if hr.off > 0 {
		n := copy(hr.buf, hr.buf[hr.off:])
		hr.buf = hr.buf[:n]
		hr.off = 0
	}
	for len(hr.buf) < 4 {
		if err := hr.fill(); err != nil {
			return 0, nil, err
		}
	}
	msgLen := int(hr.buf[1])<<16 | int(hr.buf[2])<<8 | int(hr.buf[3])
	if msgLen > MaxHandshakeLen {
		return 0, nil, fmt.Errorf("tlswire: handshake message of %d bytes exceeds %d-byte cap", msgLen, MaxHandshakeLen)
	}
	for len(hr.buf) < 4+msgLen {
		if err := hr.fill(); err != nil {
			return 0, nil, err
		}
	}
	msgType = hr.buf[0]
	body = hr.buf[4 : 4+msgLen]
	hr.off = 4 + msgLen
	return msgType, body, nil
}

func (hr *HandshakeReader) fill() error {
	if err := hr.rr.ReadRecord(&hr.rec); err != nil {
		return err
	}
	switch hr.rec.Type {
	case RecordHandshake:
		if len(hr.rec.Payload) == 0 {
			// Tolerate the occasional empty fragment, but refuse a stream
			// of them: each fill must eventually make progress or the
			// reassembly loop would spin forever.
			hr.empty++
			if hr.empty > maxEmptyHandshakeRecords {
				return fmt.Errorf("tlswire: %d consecutive empty handshake records", hr.empty)
			}
			return nil
		}
		hr.empty = 0
		hr.buf = append(hr.buf, hr.rec.Payload...)
		return nil
	case RecordAlert:
		a, err := ParseAlert(hr.rec.Payload)
		if err != nil {
			return err
		}
		hr.LastAlert = a
		return ErrAlertReceived
	default:
		return fmt.Errorf("tlswire: unexpected record type %d during handshake", hr.rec.Type)
	}
}
