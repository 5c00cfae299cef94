package tlswire

// Tests for the zero-realloc hot path: the AppendTo encoders must produce
// the RFC 5246 bytes written out by hand, AppendHandshake framing must be
// byte-identical to writeRecord's, the handshake reader's buffer-reuse
// contract must hold, and a reused Prober must behave exactly like the
// one-shot Probe.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
)

// writeRecord writes payload as one or more records of the given type,
// fragmenting at the record-layer maximum, header and payload of each
// in two Writes: the straightforward framer the append encoders are
// held to.
func writeRecord(w io.Writer, typ uint8, version uint16, payload []byte) error {
	var header [recordHeaderLen]byte
	for first := true; first || len(payload) > 0; first = false {
		n := min(len(payload), maxRecordPayload)
		header[0] = typ
		binary.BigEndian.PutUint16(header[1:3], version)
		binary.BigEndian.PutUint16(header[3:5], uint16(n))
		if _, err := w.Write(header[:]); err != nil {
			return err
		}
		if n > 0 {
			if _, err := w.Write(payload[:n]); err != nil {
				return err
			}
		}
		payload = payload[n:]
	}
	return nil
}

// Known-answer encodings: each want is the RFC 5246 §7.4 layout spelled
// out field by field, and AppendTo must append exactly it after a prefix
// it leaves untouched.

func TestClientHelloAppendToMatchesMarshal(t *testing.T) {
	sigAlgs := []byte{0x00, 0x0d, 0x00, 0x06, 0x00, 0x04, 0x04, 0x01, 0x02, 0x01}
	reneg := []byte{0xff, 0x01, 0x00, 0x01, 0x00}
	for _, c := range []struct {
		ch   ClientHello
		want []byte
	}{
		{
			ClientHello{Version: VersionTLS12, CipherSuites: []uint16{0x002f, 0x0035}, ServerName: "a.example"},
			cat([]byte{0x03, 0x03}, // TLS 1.2
				make([]byte, 32), // random
				[]byte{0x00},     // empty session id
				[]byte{0x00, 0x04, 0x00, 0x2f, 0x00, 0x35}, // two suites
				[]byte{0x01, 0x00},                         // null compression
				[]byte{0x00, 0x21},                         // extensions: 18 + 10 + 5
				[]byte{0x00, 0x00, 0x00, 0x0e, 0x00, 0x0c, 0x00, 0x00, 0x09}, []byte("a.example"),
				sigAlgs, reneg),
		},
		{
			ClientHello{Version: VersionTLS10, CipherSuites: []uint16{5}, SessionID: []byte{9, 9}, CompressionMethods: []byte{0, 1}},
			cat([]byte{0x03, 0x01}, // TLS 1.0
				make([]byte, 32),
				[]byte{0x02, 0x09, 0x09},       // session id
				[]byte{0x00, 0x02, 0x00, 0x05}, // one suite
				[]byte{0x02, 0x00, 0x01},       // null and deflate compression
				[]byte{0x00, 0x0f},             // extensions: 10 + 5, no server_name
				sigAlgs, reneg),
		},
	} {
		got, err := c.ch.AppendTo([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cat([]byte("prefix"), c.want)) {
			t.Fatalf("ClientHello %+v:\n got %x\nwant prefix ‖ %x", c.ch, got, c.want)
		}
	}
}

func TestServerHelloAppendToMatchesMarshal(t *testing.T) {
	sh := ServerHello{Version: VersionTLS12, CipherSuite: TLSRSAWithAES128CBCSHA, SessionID: []byte{1, 2, 3}}
	for i := range sh.Random {
		sh.Random[i] = 0xaa
	}
	want := cat([]byte{0x03, 0x03}, bytes.Repeat([]byte{0xaa}, 32),
		[]byte{0x03, 0x01, 0x02, 0x03}, // session id
		[]byte{0x00, 0x2f},             // TLS_RSA_WITH_AES_128_CBC_SHA
		[]byte{0x00})                   // null compression
	got, err := sh.AppendTo([]byte{0xff})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cat([]byte{0xff}, want)) {
		t.Fatalf("ServerHello:\n got %x\nwant ff ‖ %x", got, want)
	}
}

func TestCertificateMsgAppendToMatchesMarshal(t *testing.T) {
	cm := CertificateMsg{ChainDER: [][]byte{{1, 2, 3}, {4, 5}}}
	want := []byte{
		0x00, 0x00, 0x0b, // certificate_list length: (3+3) + (3+2)
		0x00, 0x00, 0x03, 1, 2, 3,
		0x00, 0x00, 0x02, 4, 5,
	}
	got, err := cm.AppendTo([]byte{0xff})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cat([]byte{0xff}, want)) {
		t.Fatalf("Certificate:\n got %x\nwant ff ‖ %x", got, want)
	}
}

// TestAppendRecordMatchesWriteRecord pins the RFC 5246 §6.2.1 record
// layout — type, version, 16-bit length, payload, fragmented at
// maxRecordPayload — with literal bytes, and checks writeRecord and both
// record appenders, AppendAlert and AppendHandshake, against it.
func TestAppendRecordMatchesWriteRecord(t *testing.T) {
	body := bytes.Repeat([]byte{7}, maxRecordPayload-3) // message spills one byte
	for _, c := range []struct {
		name     string
		typ      uint8
		version  uint16
		payload  []byte
		appendTo func([]byte) []byte
		want     []byte
	}{
		{
			"alert", RecordAlert, VersionTLS12, []byte{2, 40},
			func(dst []byte) []byte {
				return AppendAlert(dst, VersionTLS12, Alert{Level: AlertLevelFatal, Description: AlertHandshakeFailure})
			},
			[]byte{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 0x28},
		},
		{
			"empty handshake message", RecordHandshake, VersionTLS10, []byte{0x0e, 0, 0, 0},
			func(dst []byte) []byte { return AppendHandshake(dst, VersionTLS10, TypeServerHelloDone, nil) },
			[]byte{0x16, 0x03, 0x01, 0x00, 0x04, 0x0e, 0x00, 0x00, 0x00},
		},
		{
			"two records", RecordHandshake, VersionSSL30, cat([]byte{0x0b, 0x00, 0x3f, 0xfd}, body),
			func(dst []byte) []byte { return AppendHandshake(dst, VersionSSL30, TypeCertificate, body) },
			cat([]byte{0x16, 0x03, 0x00, 0x40, 0x00}, []byte{0x0b, 0x00, 0x3f, 0xfd}, body[:maxRecordPayload-4],
				[]byte{0x16, 0x03, 0x00, 0x00, 0x01}, body[maxRecordPayload-4:]),
		},
	} {
		var w bytes.Buffer
		if err := writeRecord(&w, c.typ, c.version, c.payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), c.want) {
			t.Fatalf("%s: writeRecord wrote %d bytes %.16x…, want %.16x…", c.name, w.Len(), w.Bytes(), c.want)
		}
		if got := c.appendTo([]byte("prefix")); !bytes.Equal(got, cat([]byte("prefix"), c.want)) {
			t.Fatalf("%s: appended %d bytes %.16x…, want prefix ‖ %.16x…", c.name, len(got), got, c.want)
		}
	}
}

// TestAppendHandshakeMatchesWriteHandshake builds a server flight the way
// Respond does, each handshake message appended after the ones before it,
// and checks it against writing the same messages one after another
// through writeRecord.
func TestAppendHandshakeMatchesWriteHandshake(t *testing.T) {
	var got []byte
	var want bytes.Buffer
	for _, m := range []struct {
		typ  uint8
		body []byte
	}{
		{TypeServerHello, bytes.Repeat([]byte{1}, 70)},
		{TypeCertificate, bytes.Repeat([]byte{2}, 2*maxRecordPayload+100)},
		{TypeServerHelloDone, nil},
	} {
		got = AppendHandshake(got, VersionTLS12, m.typ, m.body)
		n := len(m.body)
		if err := writeRecord(&want, RecordHandshake, VersionTLS12, cat([]byte{m.typ, byte(n >> 16), byte(n >> 8), byte(n)}, m.body)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("after message type %d: flight of %d bytes, writeRecord wrote %d", m.typ, len(got), want.Len())
		}
	}
}

// TestAppendHandshakeFramesLikeWriteRecord checks the framing Prober and
// Respond put on the wire against writeRecord's own fragmentation loop:
// a handshake message is its 4-byte header followed by the body, split
// into handshake records of at most maxRecordPayload bytes. The sizes
// cover an empty body, a message that exactly fills one record, one that
// spills a single byte into a second record, and a multi-record message.
func TestAppendHandshakeFramesLikeWriteRecord(t *testing.T) {
	for _, n := range []int{0, 1, maxRecordPayload - 4, maxRecordPayload - 3, maxRecordPayload, 3*maxRecordPayload + 7} {
		body := bytes.Repeat([]byte{0xab}, n)
		msg := append([]byte{TypeCertificate, byte(n >> 16), byte(n >> 8), byte(n)}, body...)
		var want bytes.Buffer
		if err := writeRecord(&want, RecordHandshake, VersionTLS12, msg); err != nil {
			t.Fatal(err)
		}
		got := AppendHandshake(nil, VersionTLS12, TypeCertificate, body)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d-byte body: AppendHandshake framed %d bytes, writeRecord %d", n, len(got), want.Len())
		}
	}
}

// TestHandshakeReaderBodyValidUntilNext pins the aliasing contract: the
// returned body stays intact until the next Next call, then may be
// recycled.
func TestHandshakeReaderBodyValidUntilNext(t *testing.T) {
	stream := AppendHandshake(nil, VersionTLS12, TypeServerHello, []byte{1, 1, 1})
	stream = AppendHandshake(stream, VersionTLS12, TypeCertificate, []byte{2, 2, 2, 2})
	hr := NewHandshakeReader(NewRecordReader(bytes.NewReader(stream)))
	_, body1, err := hr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, []byte{1, 1, 1}) {
		t.Fatalf("first body = %v", body1)
	}
	snapshot := append([]byte(nil), body1...)
	_, body2, err := hr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body2, []byte{2, 2, 2, 2}) {
		t.Fatalf("second body = %v", body2)
	}
	_ = snapshot // body1 itself may now be recycled; only the copy is stable
}

// TestProberReuse runs many probes through one Prober against responders
// serving different chains, checking each result is correct and that
// chains captured earlier stay intact after the Prober's buffers are
// reused (the ChainDER arena must not be recycled).
func TestProberReuse(t *testing.T) {
	chains := map[string][][]byte{
		"a.example": testChain(t, "a.example"),
		"b.example": testChain(t, "b.example"),
	}
	selector := func(name string) ([][]byte, error) {
		c, ok := chains[name]
		if !ok {
			return nil, fmt.Errorf("no chain for %q", name)
		}
		return c, nil
	}
	p := NewProber()
	var captured [][][]byte
	hosts := []string{"a.example", "b.example", "a.example", "b.example", "a.example"}
	for _, host := range hosts {
		client, server := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			defer server.Close()
			errc <- Respond(server, ResponderConfig{Chain: ChainSelector(selector)})
		}()
		res, err := p.Probe(client, ProbeOptions{ServerName: host})
		client.Close()
		if err != nil {
			t.Fatalf("probe %s: %v", host, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("responder for %s: %v", host, err)
		}
		captured = append(captured, res.ChainDER)
	}
	for i, host := range hosts {
		want := chains[host]
		got := captured[i]
		if len(got) != len(want) {
			t.Fatalf("probe %d (%s): chain length %d, want %d", i, host, len(got), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("probe %d (%s): cert %d corrupted by prober reuse", i, host, j)
			}
		}
	}
}

// replayServerConn is an in-memory conn that serves a canned server
// flight to each probe and discards writes — the pure client-side cost of
// a probe, no goroutines, no sockets.
type replayServerConn struct {
	net.Conn // panics if any unimplemented method is called
	flight   []byte
	pos      int
}

func (c *replayServerConn) Read(p []byte) (int, error) {
	if c.pos >= len(c.flight) {
		return 0, io.EOF
	}
	n := copy(p, c.flight[c.pos:])
	c.pos += n
	return n, nil
}

func (c *replayServerConn) Write(p []byte) (int, error) { return len(p), nil }

// recordFlight captures the exact server flight a responder sends for the
// given chain by running Respond against a pipe once.
func recordFlight(t testing.TB, chain [][]byte, serverName string) []byte {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		Respond(server, ResponderConfig{Chain: StaticChain(chain)})
	}()
	var flight bytes.Buffer
	tee := io.TeeReader(client, &flight)
	hr := NewHandshakeReader(NewRecordReader(tee))
	ch := ClientHello{Version: VersionTLS12, CipherSuites: DefaultCipherSuites, ServerName: serverName}
	body, err := ch.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(AppendHandshake(nil, VersionTLS10, TypeClientHello, body)); err != nil {
		t.Fatal(err)
	}
	for {
		msgType, _, err := hr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if msgType == TypeServerHelloDone {
			break
		}
	}
	client.Close()
	return flight.Bytes()
}

// zeroEntropy keeps the alloc measurement free of crypto/rand's internal
// buffering.
type zeroEntropy struct{}

func (zeroEntropy) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x42
	}
	return len(p), nil
}

// probeSteadyStateAllocs measures allocs/op of a warm Prober loop against
// a canned server flight.
func probeSteadyStateAllocs(t testing.TB) float64 {
	chain := testChain(t, "alloc.example")
	flight := recordFlight(t, chain, "alloc.example")
	p := NewProber()
	conn := &replayServerConn{flight: flight}
	probe := func() {
		conn.pos = 0
		if _, err := p.Probe(conn, ProbeOptions{ServerName: "alloc.example", Entropy: zeroEntropy{}}); err != nil {
			t.Fatal(err)
		}
	}
	probe() // warm buffers
	return testing.AllocsPerRun(200, probe)
}

// maxProberSteadyStateAllocs pins the probe loop's allocation budget: the
// chain arena and its [][]byte header — which must escape into the
// report — and nothing else. A regression past this bound fails CI's
// bench-smoke step.
const maxProberSteadyStateAllocs = 2

// BenchmarkProbeAllocs measures and asserts the steady-state allocation
// count of a reused Prober; it is both a benchmark and the allocation
// regression guard.
func BenchmarkProbeAllocs(b *testing.B) {
	if allocs := probeSteadyStateAllocs(b); allocs > maxProberSteadyStateAllocs {
		b.Fatalf("steady-state probe loop costs %.1f allocs/op, budget %d", allocs, maxProberSteadyStateAllocs)
	}
	chain := testChain(b, "alloc.example")
	flight := recordFlight(b, chain, "alloc.example")
	p := NewProber()
	conn := &replayServerConn{flight: flight}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.pos = 0
		if _, err := p.Probe(conn, ProbeOptions{ServerName: "alloc.example", Entropy: zeroEntropy{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRespondAllocs measures the pooled responder's per-connection
// cost against an in-memory client that replays a canned ClientHello.
func BenchmarkRespondAllocs(b *testing.B) {
	chain := testChain(b, "respond.example")
	ch := ClientHello{Version: VersionTLS12, CipherSuites: DefaultCipherSuites, ServerName: "respond.example"}
	body, err := ch.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	hello := AppendHandshake(nil, VersionTLS10, TypeClientHello, body)
	conn := &replayServerConn{flight: hello}
	cfg := ResponderConfig{Chain: StaticChain(chain), Entropy: zeroEntropy{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.pos = 0
		if err := Respond(conn, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
