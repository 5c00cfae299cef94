package tlswire

import (
	"bytes"
	"crypto/x509/pkix"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"tlsfof/internal/certgen"
)

func testChain(t testing.TB, cn string) [][]byte {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: cn + " Root", Organization: []string{"Wire Test"}},
		KeyBits: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: cn, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return leaf.ChainDER
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello handshake")
	if err := writeRecord(&buf, RecordHandshake, VersionTLS12, payload); err != nil {
		t.Fatal(err)
	}
	rr := NewRecordReader(&buf)
	var rec Record
	if err := rr.ReadRecord(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != RecordHandshake || rec.Version != VersionTLS12 {
		t.Fatalf("rec = %+v", rec)
	}
	if !bytes.Equal(rec.Payload, payload) {
		t.Fatalf("payload = %q", rec.Payload)
	}
}

func TestRecordFragmentation(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, maxRecordPayload*2+100)
	for i := range big {
		big[i] = byte(i)
	}
	if err := writeRecord(&buf, RecordHandshake, VersionTLS10, big); err != nil {
		t.Fatal(err)
	}
	rr := NewRecordReader(&buf)
	var rec Record
	var got []byte
	records := 0
	for {
		err := rr.ReadRecord(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Payload) > maxRecordPayload {
			t.Fatalf("record of %d bytes exceeds max", len(rec.Payload))
		}
		got = append(got, rec.Payload...)
		records++
	}
	if records != 3 {
		t.Fatalf("wrote %d records, want 3", records)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("fragmented payload corrupted")
	}
}

func TestRecordTooLarge(t *testing.T) {
	raw := []byte{RecordHandshake, 0x03, 0x03, 0xff, 0xff}
	raw = append(raw, make([]byte, 0xffff)...)
	rr := NewRecordReader(bytes.NewReader(raw))
	var rec Record
	if err := rr.ReadRecord(&rec); err != ErrRecordTooLarge {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestTruncatedRecordHeader(t *testing.T) {
	rr := NewRecordReader(bytes.NewReader([]byte{22, 3}))
	var rec Record
	if err := rr.ReadRecord(&rec); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	rr := NewRecordReader(bytes.NewReader([]byte{22, 3, 1, 0, 10, 1, 2, 3}))
	var rec Record
	if err := rr.ReadRecord(&rec); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestClientHelloRoundTrip(t *testing.T) {
	ch := ClientHello{
		Version:      VersionTLS12,
		CipherSuites: DefaultCipherSuites,
		ServerName:   "tlsresearch.byu.edu",
		SessionID:    []byte{1, 2, 3, 4},
	}
	for i := range ch.Random {
		ch.Random[i] = byte(i)
	}
	body, err := ch.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got ClientHello
	if err := ParseClientHello(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != ch.Version || got.ServerName != ch.ServerName {
		t.Fatalf("got %+v", got)
	}
	if got.Random != ch.Random {
		t.Fatal("random corrupted")
	}
	if len(got.CipherSuites) != len(ch.CipherSuites) {
		t.Fatalf("suites = %v", got.CipherSuites)
	}
	if !bytes.Equal(got.SessionID, ch.SessionID) {
		t.Fatalf("session id = %v", got.SessionID)
	}
}

func TestClientHelloNoSNI(t *testing.T) {
	ch := ClientHello{Version: VersionTLS10, CipherSuites: []uint16{TLSRSAWithAES128CBCSHA}}
	body, err := ch.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got ClientHello
	if err := ParseClientHello(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ServerName != "" {
		t.Fatalf("phantom SNI %q", got.ServerName)
	}
}

func TestClientHelloWithoutExtensionsParses(t *testing.T) {
	// Flash-era hellos could end right after compression methods.
	var ch ClientHello
	ch.Version = VersionTLS10
	ch.CipherSuites = []uint16{TLSRSAWithAES128CBCSHA}
	body, err := ch.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the extensions block: find compression methods end.
	// body layout: ver(2) random(32) sidlen(1) suites(2+2) comp(1+1) ext...
	trimmed := body[:2+32+1+2+2+1+1]
	var got ClientHello
	if err := ParseClientHello(trimmed, &got); err != nil {
		t.Fatalf("extension-less hello rejected: %v", err)
	}
}

func TestClientHelloValidation(t *testing.T) {
	ch := ClientHello{Version: VersionTLS12}
	if _, err := ch.AppendTo(nil); err == nil {
		t.Error("empty cipher suites accepted")
	}
	ch.CipherSuites = []uint16{1}
	ch.SessionID = make([]byte, 33)
	if _, err := ch.AppendTo(nil); err == nil {
		t.Error("oversized session id accepted")
	}
}

func TestParseClientHelloTruncated(t *testing.T) {
	ch := ClientHello{Version: VersionTLS12, CipherSuites: DefaultCipherSuites, ServerName: "x.example"}
	body, _ := ch.AppendTo(nil)
	for cut := 1; cut < len(body); cut += 7 {
		var got ClientHello
		if err := ParseClientHello(body[:cut], &got); err == nil && cut < 40 {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := ServerHello{Version: VersionTLS11, CipherSuite: TLSRSAWithAES256CBCSHA, SessionID: []byte{9}}
	sh.Random[0] = 0xaa
	body, err := sh.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got ServerHello
	if err := ParseServerHello(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != sh.Version || got.CipherSuite != sh.CipherSuite || got.Random[0] != 0xaa {
		t.Fatalf("got %+v", got)
	}
}

func TestCertificateMsgRoundTrip(t *testing.T) {
	chain := testChain(t, "roundtrip.example")
	cm := CertificateMsg{ChainDER: chain}
	body, err := cm.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendCertificateChain(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chain) {
		t.Fatalf("chain length %d", len(got))
	}
	for i := range chain {
		if !bytes.Equal(chain[i], got[i]) {
			t.Fatalf("cert %d corrupted", i)
		}
	}
}

func TestCertificateMsgEmptyRejected(t *testing.T) {
	if _, err := appendCertificateChain(nil, []byte{0, 0, 0}); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestAlertRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAlert(&buf, VersionTLS12, Alert{AlertLevelFatal, AlertHandshakeFailure}); err != nil {
		t.Fatal(err)
	}
	rr := NewRecordReader(&buf)
	var rec Record
	if err := rr.ReadRecord(&rec); err != nil {
		t.Fatal(err)
	}
	a, err := ParseAlert(rec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if a.Level != AlertLevelFatal || a.Description != AlertHandshakeFailure {
		t.Fatalf("alert = %+v", a)
	}
	if _, err := ParseAlert([]byte{1}); err == nil {
		t.Fatal("short alert accepted")
	}
}

// writeCounter counts the Write calls that reach it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteAlertOneWrite: an alert leaves in one Write, as the bytes
// writeRecord frames for its two-byte payload in two.
func TestWriteAlertOneWrite(t *testing.T) {
	for _, a := range []Alert{{AlertLevelFatal, AlertHandshakeFailure}, {AlertLevelFatal, AlertUnexpectedMsg}} {
		var w writeCounter
		if err := WriteAlert(&w, VersionTLS12, a); err != nil {
			t.Fatal(err)
		}
		var want writeCounter
		if err := writeRecord(&want, RecordAlert, VersionTLS12, []byte{a.Level, a.Description}); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || !bytes.Equal(w.Bytes(), want.Bytes()) {
			t.Fatalf("alert %+v: %d writes of % x, want 1 write of % x", a, w.writes, w.Bytes(), want.Bytes())
		}
	}
}

func TestHandshakeReaderReassembly(t *testing.T) {
	// One handshake message split across three records.
	msg := make([]byte, 0, 4+300)
	msg = append(msg, TypeCertificate, 0, 1, 44) // length 300
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	msg = append(msg, payload...)
	var buf bytes.Buffer
	for _, part := range [][]byte{msg[:100], msg[100:200], msg[200:]} {
		if err := writeRecord(&buf, RecordHandshake, VersionTLS12, part); err != nil {
			t.Fatal(err)
		}
	}
	hr := NewHandshakeReader(NewRecordReader(&buf))
	typ, body, err := hr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeCertificate || len(body) != 300 {
		t.Fatalf("typ=%d len=%d", typ, len(body))
	}
	if !bytes.Equal(body, payload) {
		t.Fatal("reassembled body corrupted")
	}
}

func TestHandshakeReaderRejectsHugeMessage(t *testing.T) {
	var buf bytes.Buffer
	header := []byte{TypeCertificate, 0xff, 0xff, 0xff}
	if err := writeRecord(&buf, RecordHandshake, VersionTLS12, header); err != nil {
		t.Fatal(err)
	}
	hr := NewHandshakeReader(NewRecordReader(&buf))
	if _, _, err := hr.Next(); err == nil {
		t.Fatal("16MiB handshake message accepted")
	}
}

func TestHandshakeReaderAlertSurfaces(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAlert(&buf, VersionTLS12, Alert{AlertLevelFatal, AlertHandshakeFailure}); err != nil {
		t.Fatal(err)
	}
	hr := NewHandshakeReader(NewRecordReader(&buf))
	if _, _, err := hr.Next(); err != ErrAlertReceived {
		t.Fatalf("err = %v", err)
	}
	if hr.LastAlert.Description != AlertHandshakeFailure {
		t.Fatalf("alert = %+v", hr.LastAlert)
	}
}

// TestProbeAgainstResponder runs the full partial handshake over an
// in-memory pipe: our client against our responder.
func TestProbeAgainstResponder(t *testing.T) {
	chain := testChain(t, "probe.example")
	client, server := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	var sawSNI string
	go func() {
		defer server.Close()
		errc <- Respond(server, ResponderConfig{
			Chain:         StaticChain(chain),
			OnClientHello: func(ch *ClientHello) { sawSNI = ch.ServerName },
		})
	}()
	result, err := Probe(client, ProbeOptions{ServerName: "probe.example"})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("responder: %v", err)
	}
	if len(result.ChainDER) != 2 {
		t.Fatalf("chain length %d", len(result.ChainDER))
	}
	if !bytes.Equal(result.ChainDER[0], chain[0]) {
		t.Fatal("leaf corrupted in flight")
	}
	if sawSNI != "probe.example" {
		t.Fatalf("responder saw SNI %q", sawSNI)
	}
	if result.ServerHello.Version != VersionTLS12 {
		t.Fatalf("negotiated %s", VersionName(result.ServerHello.Version))
	}
}

func TestProbeOverTCP(t *testing.T) {
	chain := testChain(t, "tcp.example")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Server(ln, ResponderConfig{Chain: StaticChain(chain)}, nil)

	result, err := ProbeAddr(ln.Addr().String(), ProbeOptions{ServerName: "tcp.example", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.ChainDER) != 2 {
		t.Fatalf("chain length %d", len(result.ChainDER))
	}
}

func TestResponderSNISelection(t *testing.T) {
	chainA := testChain(t, "a.example")
	chainB := testChain(t, "b.example")
	selector := func(name string) ([][]byte, error) {
		if name == "b.example" {
			return chainB, nil
		}
		return chainA, nil
	}
	for _, tc := range []struct {
		sni  string
		want [][]byte
	}{
		{"a.example", chainA},
		{"b.example", chainB},
		{"", chainA},
	} {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			Respond(server, ResponderConfig{Chain: selector})
		}()
		res, err := Probe(client, ProbeOptions{ServerName: tc.sni})
		client.Close()
		if err != nil {
			t.Fatalf("sni=%q: %v", tc.sni, err)
		}
		if !bytes.Equal(res.ChainDER[0], tc.want[0]) {
			t.Fatalf("sni=%q got wrong chain", tc.sni)
		}
	}
}

func TestResponderSelectorErrorAlerts(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		Respond(server, ResponderConfig{
			Chain: func(string) ([][]byte, error) { return nil, io.ErrClosedPipe },
		})
	}()
	_, err := Probe(client, ProbeOptions{ServerName: "fail.example"})
	if err == nil {
		t.Fatal("probe succeeded despite selector failure")
	}
}

func TestResponderRejectsGarbage(t *testing.T) {
	chain := testChain(t, "g.example")
	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer server.Close()
		errc <- Respond(server, ResponderConfig{Chain: StaticChain(chain)})
	}()
	client.Write([]byte("GET / HTTP/1.1\r\nHost: example\r\n\r\n"))
	// Close immediately: net.Pipe is synchronous, and the responder may
	// block waiting for the rest of a "record" the garbage promised.
	client.Close()
	if err := <-errc; err == nil {
		t.Fatal("responder accepted HTTP garbage")
	}
}

func TestVersionNegotiationCapped(t *testing.T) {
	chain := testChain(t, "v.example")
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		Respond(server, ResponderConfig{Chain: StaticChain(chain)})
	}()
	res, err := Probe(client, ProbeOptions{ServerName: "v.example", Version: VersionTLS10})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerHello.Version != VersionTLS10 {
		t.Fatalf("negotiated %s for a TLS1.0 client", VersionName(res.ServerHello.Version))
	}
}

func TestVersionName(t *testing.T) {
	if VersionName(VersionTLS12) != "TLSv1.2" || VersionName(0x9999) != "0x9999" {
		t.Fatal("bad version names")
	}
}

// Property: ParseClientHello never panics on arbitrary input.
func TestQuickParseClientHelloRobust(t *testing.T) {
	f := func(data []byte) bool {
		var ch ClientHello
		_ = ParseClientHello(data, &ch) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Certificate parser and ParseServerHello never panic.
func TestQuickParseServerMessagesRobust(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = appendCertificateChain(nil, data)
		var sh ServerHello
		_ = ParseServerHello(data, &sh)
		_, _ = ParseAlert(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: certificate message encode/parse round-trips arbitrary chains.
func TestQuickCertificateRoundTrip(t *testing.T) {
	f := func(blobs [][]byte) bool {
		var chain [][]byte
		for _, b := range blobs {
			if len(b) > 0 && len(b) < 1000 {
				chain = append(chain, b)
			}
		}
		if len(chain) == 0 {
			return true
		}
		cm := CertificateMsg{ChainDER: chain}
		body, err := cm.AppendTo(nil)
		if err != nil {
			return false
		}
		got, err := appendCertificateChain(nil, body)
		if err != nil {
			return false
		}
		if len(got) != len(chain) {
			return false
		}
		for i := range chain {
			if !bytes.Equal(chain[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProbePipe(b *testing.B) {
	chain := testChain(b, "bench.example")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client, server := net.Pipe()
		go func() {
			Respond(server, ResponderConfig{Chain: StaticChain(chain)})
			server.Close()
		}()
		if _, err := Probe(client, ProbeOptions{ServerName: "bench.example"}); err != nil {
			b.Fatal(err)
		}
		client.Close()
	}
}

func BenchmarkAppendCertificateChain(b *testing.B) {
	chain := testChain(b, "parse.example")
	cm := CertificateMsg{ChainDER: chain}
	body, err := cm.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := appendCertificateChain(nil, body); err != nil {
			b.Fatal(err)
		}
	}
}
