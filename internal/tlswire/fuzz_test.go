package tlswire

import (
	"bytes"
	"reflect"
	"testing"
)

// Native fuzz targets over the wire parsers. Seed corpora are built from
// real encoded messages (the same shapes the probe and responder put
// on the wire) plus the minimized hostile inputs the first fuzzing
// sweeps surfaced, checked in below as explicit f.Add regression seeds.

// seedClientHello is a realistic ClientHello body for corpora.
func seedClientHello(sni string) []byte {
	ch := &ClientHello{
		Version:      VersionTLS12,
		CipherSuites: DefaultCipherSuites,
		ServerName:   sni,
	}
	for i := range ch.Random {
		ch.Random[i] = byte(i * 7)
	}
	body, err := ch.AppendTo(nil)
	if err != nil {
		panic(err)
	}
	return body
}

func FuzzParseClientHello(f *testing.F) {
	f.Add(seedClientHello("example.com"))
	f.Add(seedClientHello(""))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x03})
	// Regression: odd cipher-suite vector length.
	f.Add(append(append([]byte{0x03, 0x03}, make([]byte, 32)...), 0x00, 0x00, 0x03, 0x00, 0x00, 0x00))
	f.Fuzz(func(t *testing.T, body []byte) {
		var ch ClientHello
		if err := ParseClientHello(body, &ch); err != nil {
			return
		}
		// Anything that parses must survive an encode→parse round trip
		// (trailing unknown extensions are legitimately dropped, so only
		// the re-encoded form must be a fixed point).
		if len(ch.CipherSuites) == 0 {
			t.Fatalf("parse accepted a ClientHello with zero cipher suites")
		}
		out, err := ch.AppendTo(nil)
		if err != nil {
			t.Fatalf("re-encode of parsed hello: %v", err)
		}
		var ch2 ClientHello
		if err := ParseClientHello(out, &ch2); err != nil {
			t.Fatalf("re-parse of encoded hello: %v (encoded=%x)", err, out)
		}
		if ch.Version != ch2.Version || ch.ServerName != ch2.ServerName ||
			!bytes.Equal(ch.SessionID, ch2.SessionID) ||
			!reflect.DeepEqual(ch.CipherSuites, ch2.CipherSuites) {
			t.Fatalf("round trip drifted:\n%+v\nvs\n%+v", ch, ch2)
		}
	})
}

func FuzzParseServerHello(f *testing.F) {
	sh := &ServerHello{Version: VersionTLS12, CipherSuite: TLSRSAWithAES128CBCSHA, SessionID: []byte{1, 2, 3}}
	body, _ := sh.AppendTo(nil)
	f.Add(body)
	f.Add([]byte{})
	f.Add(make([]byte, 38))
	f.Fuzz(func(t *testing.T, body []byte) {
		var sh ServerHello
		if err := ParseServerHello(body, &sh); err != nil {
			return
		}
		out, err := sh.AppendTo(nil)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var sh2 ServerHello
		if err := ParseServerHello(out, &sh2); err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if sh.Version != sh2.Version || sh.CipherSuite != sh2.CipherSuite ||
			sh.CompressionMethod != sh2.CompressionMethod || !bytes.Equal(sh.SessionID, sh2.SessionID) {
			t.Fatalf("round trip drifted: %+v vs %+v", sh, sh2)
		}
	})
}

func FuzzParseCertificateMsg(f *testing.F) {
	cm := &CertificateMsg{ChainDER: [][]byte{bytes.Repeat([]byte{0x30}, 64), {0x30, 0x01}}}
	body, _ := cm.AppendTo(nil)
	f.Add(body)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00})       // empty chain
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x00}) // hostile total length
	f.Fuzz(func(t *testing.T, body []byte) {
		chain, err := appendCertificateChain(nil, body)
		if err != nil {
			return
		}
		if len(chain) == 0 {
			t.Fatalf("parse accepted an empty chain")
		}
		out, err := (&CertificateMsg{ChainDER: chain}).AppendTo(nil)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		chain2, err := appendCertificateChain(nil, out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !reflect.DeepEqual(chain, chain2) {
			t.Fatalf("chain drifted through round trip")
		}
	})
}

func FuzzHandshakeReader(f *testing.F) {
	// A full well-formed server flight as the prime seed.
	shBody, _ := (&ServerHello{Version: VersionTLS12, CipherSuite: TLSRSAWithAES128CBCSHA}).AppendTo(nil)
	cmBody, _ := (&CertificateMsg{ChainDER: [][]byte{bytes.Repeat([]byte{0x30}, 512)}}).AppendTo(nil)
	flight := AppendHandshake(nil, VersionTLS12, TypeServerHello, shBody)
	flight = AppendHandshake(flight, VersionTLS12, TypeCertificate, cmBody)
	flight = AppendHandshake(flight, VersionTLS12, TypeServerHelloDone, nil)
	f.Add(flight)
	// An alert, then a handshake record.
	f.Add(append(AppendAlert(nil, VersionTLS12, Alert{AlertLevelWarning, AlertCloseNotify}), flight...))
	// Regressions: hostile 16MB length prefix; empty-record flood.
	f.Add(record(RecordHandshake, []byte{TypeCertificate, 0xFF, 0xFF, 0xFF}))
	f.Add(bytes.Repeat(record(RecordHandshake, nil), 32))
	f.Add([]byte{22, 3, 1, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		hr := NewHandshakeReader(NewRecordReader(bytes.NewReader(stream)))
		msgs := 0
		for {
			_, body, err := hr.Next()
			if err != nil {
				return // every stream must end in EOF or an explicit error
			}
			if len(body) > MaxHandshakeLen {
				t.Fatalf("message of %d bytes escaped the cap", len(body))
			}
			msgs++
			if msgs > 1<<14 {
				// A finite input yielding unbounded messages would mean
				// the reader stopped consuming bytes.
				t.Fatalf("reassembly loop did not terminate")
			}
		}
	})
}
