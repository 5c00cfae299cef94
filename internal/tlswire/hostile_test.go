package tlswire

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// hostileStream builds a raw record stream from (type, payload) pairs.
func hostileStream(recs ...[]byte) *bytes.Reader {
	var b bytes.Buffer
	for _, r := range recs {
		b.Write(r)
	}
	return bytes.NewReader(b.Bytes())
}

// record frames one raw record (no fragmentation, no validation).
func record(typ uint8, payload []byte) []byte {
	out := []byte{typ, 0x03, 0x01, byte(len(payload) >> 8), byte(len(payload))}
	return append(out, payload...)
}

// TestHandshakeLenCapRejectsHostilePrefix pins the satellite fix: a
// handshake header claiming a 16MB body must be rejected before the
// reader buffers anything near it — the hostile-prefix allocation bound.
func TestHandshakeLenCapRejectsHostilePrefix(t *testing.T) {
	// Handshake header: type 11, length 0xFFFFFF (16MB−1).
	hdr := []byte{TypeCertificate, 0xFF, 0xFF, 0xFF}
	rr := NewRecordReader(hostileStream(record(RecordHandshake, hdr)))
	hr := NewHandshakeReader(rr)
	_, _, err := hr.Next()
	if err == nil {
		t.Fatalf("16MB length prefix accepted")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("hostile prefix error = %v, want the cap error", err)
	}
	if cap(hr.buf) > 2*maxRecordPayload {
		t.Fatalf("hostile prefix grew the reassembly buffer to %d bytes", cap(hr.buf))
	}
}

// TestHandshakeLenCapBoundary: a message exactly at the cap is accepted;
// one byte over is refused.
func TestHandshakeLenCapBoundary(t *testing.T) {
	body := make([]byte, MaxHandshakeLen)
	flight := AppendHandshake(nil, VersionTLS12, TypeCertificate, body)
	hr := NewHandshakeReader(NewRecordReader(bytes.NewReader(flight)))
	typ, got, err := hr.Next()
	if err != nil || typ != TypeCertificate || len(got) != MaxHandshakeLen {
		t.Fatalf("at-cap message: type=%d len=%d err=%v", typ, len(got), err)
	}

	over := AppendHandshake(nil, VersionTLS12, TypeCertificate, make([]byte, MaxHandshakeLen+1))
	hr = NewHandshakeReader(NewRecordReader(bytes.NewReader(over)))
	if _, _, err := hr.Next(); err == nil {
		t.Fatalf("over-cap message accepted")
	}
}

// TestEmptyHandshakeRecordFlood pins the livelock guard: a peer
// streaming zero-length handshake records must get an error, not an
// infinite reassembly spin.
func TestEmptyHandshakeRecordFlood(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 100; i++ {
		recs = append(recs, record(RecordHandshake, nil))
	}
	hr := NewHandshakeReader(NewRecordReader(hostileStream(recs...)))
	_, _, err := hr.Next()
	if err == nil {
		t.Fatalf("empty-record flood accepted")
	}
	if !strings.Contains(err.Error(), "empty handshake") {
		t.Fatalf("flood error = %v, want the empty-record guard", err)
	}
}

// TestOccasionalEmptyFragmentTolerated: a few empty fragments between
// real ones are legal and must not break reassembly.
func TestOccasionalEmptyFragmentTolerated(t *testing.T) {
	msg := AppendHandshake(nil, VersionTLS12, TypeServerHelloDone, nil)
	stream := hostileStream(record(RecordHandshake, nil), record(RecordHandshake, nil), msg)
	hr := NewHandshakeReader(NewRecordReader(stream))
	typ, _, err := hr.Next()
	if err != nil || typ != TypeServerHelloDone {
		t.Fatalf("empty fragments before a real message: type=%d err=%v", typ, err)
	}
}

// TestOversizeRecordRejected pins the record-layer length bound.
func TestOversizeRecordRejected(t *testing.T) {
	hdr := []byte{RecordHandshake, 0x03, 0x01, 0xFF, 0xFF} // 65535-byte record
	rr := NewRecordReader(bytes.NewReader(hdr))
	var rec Record
	if err := rr.ReadRecord(&rec); err != ErrRecordTooLarge {
		t.Fatalf("oversize record: %v, want ErrRecordTooLarge", err)
	}
}

// TestTruncatedFlightAlwaysErrors: a server flight cut at every possible
// byte offset must yield a terminating error from the reassembly loop —
// no panic, no hang, no silently complete message from a partial wire.
func TestTruncatedFlightAlwaysErrors(t *testing.T) {
	sh := ServerHello{Version: VersionTLS12, CipherSuite: TLSRSAWithAES128CBCSHA}
	shBody, err := sh.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	cm := CertificateMsg{ChainDER: [][]byte{bytes.Repeat([]byte{0x30}, 900), bytes.Repeat([]byte{0x31}, 700)}}
	cmBody, err := cm.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	flight := AppendHandshake(nil, VersionTLS12, TypeServerHello, shBody)
	flight = AppendHandshake(flight, VersionTLS12, TypeCertificate, cmBody)
	flight = AppendHandshake(flight, VersionTLS12, TypeServerHelloDone, nil)

	for cut := 0; cut < len(flight); cut++ {
		hr := NewHandshakeReader(NewRecordReader(bytes.NewReader(flight[:cut])))
		msgs := 0
		for {
			_, _, err := hr.Next()
			if err != nil {
				if err == io.EOF && cut == 0 {
					break
				}
				break // any explicit error is a pass; hanging or panicking is the failure mode
			}
			msgs++
			if msgs > 3 {
				t.Fatalf("cut=%d: more messages than the full flight holds", cut)
			}
		}
	}
}
