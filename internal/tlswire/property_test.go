package tlswire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// Property tests over seeded random messages: the zero-realloc Append*
// paths must append cleanly after any prefix and frame exactly as the
// io.Writer paths do, and parsing must invert encoding exactly. A fixed seed
// keeps failures replayable; 500 trials cover the size/SNI/session-id
// shape space far past the unit tests' fixed cases.

const propertyTrials = 500

func propRand(t *testing.T) *rand.Rand {
	t.Helper()
	return rand.New(rand.NewSource(0x7f5f0f))
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randClientHello(r *rand.Rand) *ClientHello {
	ch := &ClientHello{Version: uint16(0x0300 + r.Intn(4))}
	r.Read(ch.Random[:])
	if r.Intn(2) == 0 {
		ch.SessionID = randBytes(r, r.Intn(33))
	}
	for i, n := 0, 1+r.Intn(24); i < n; i++ {
		ch.CipherSuites = append(ch.CipherSuites, uint16(r.Intn(1<<16)))
	}
	if r.Intn(2) == 0 {
		ch.CompressionMethods = randBytes(r, 1+r.Intn(3))
	}
	if r.Intn(3) != 0 {
		name := make([]byte, 1+r.Intn(60))
		for i := range name {
			name[i] = byte('a' + r.Intn(26))
		}
		ch.ServerName = string(name)
	}
	return ch
}

func randServerHello(r *rand.Rand) *ServerHello {
	sh := &ServerHello{
		Version:           uint16(0x0300 + r.Intn(4)),
		CipherSuite:       uint16(r.Intn(1 << 16)),
		CompressionMethod: uint8(r.Intn(2)),
	}
	r.Read(sh.Random[:])
	if r.Intn(2) == 0 {
		sh.SessionID = randBytes(r, r.Intn(33))
	}
	return sh
}

func randChain(r *rand.Rand) [][]byte {
	chain := make([][]byte, 1+r.Intn(5))
	for i := range chain {
		chain[i] = randBytes(r, 1+r.Intn(2000))
	}
	return chain
}

// Reference encoders: the RFC 5246 §7.4 layouts built inside out, each
// vector assembled before its length prefix, with the extension numbers
// and signature_algorithms payload written as literals. AppendTo instead
// precomputes every length and encodes in one pass, so the two share no
// code.

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// vec prefixes the concatenated parts with their length in lenBytes bytes.
func vec(lenBytes int, parts ...[]byte) []byte {
	body := cat(parts...)
	out := make([]byte, lenBytes)
	for i := range out {
		out[i] = byte(len(body) >> (8 * (lenBytes - 1 - i)))
	}
	return append(out, body...)
}

func u16(v uint16) []byte { return []byte{byte(v >> 8), byte(v)} }

func ext(typ uint16, data []byte) []byte { return cat(u16(typ), vec(2, data)) }

func marshalClientHello(ch *ClientHello) []byte {
	var suites []byte
	for _, cs := range ch.CipherSuites {
		suites = append(suites, u16(cs)...)
	}
	comp := ch.CompressionMethods
	if len(comp) == 0 {
		comp = []byte{0}
	}
	var exts []byte
	if ch.ServerName != "" {
		exts = ext(0x0000, vec(2, []byte{0}, vec(2, []byte(ch.ServerName))))
	}
	exts = cat(exts, ext(0x000d, vec(2, []byte{0x04, 0x01, 0x02, 0x01})), ext(0xff01, []byte{0}))
	return cat(u16(ch.Version), ch.Random[:], vec(1, ch.SessionID), vec(2, suites), vec(1, comp), vec(2, exts))
}

func marshalServerHello(sh *ServerHello) []byte {
	return cat(u16(sh.Version), sh.Random[:], vec(1, sh.SessionID), u16(sh.CipherSuite), []byte{sh.CompressionMethod})
}

func marshalCertificate(cm *CertificateMsg) []byte {
	var entries []byte
	for _, der := range cm.ChainDER {
		entries = append(entries, vec(3, der)...)
	}
	return vec(3, entries)
}

// TestPropertyAppendToMatchesMarshal: AppendTo(nil) equals the reference
// encoding of every random message, and AppendTo into a dirty, offset
// buffer leaves the prefix alone and appends exactly what AppendTo(nil)
// returns.
func TestPropertyAppendToMatchesMarshal(t *testing.T) {
	r := propRand(t)
	for trial := 0; trial < propertyTrials; trial++ {
		prefix := randBytes(r, r.Intn(64))
		ch, sh, cm := randClientHello(r), randServerHello(r), &CertificateMsg{ChainDER: randChain(r)}
		for _, c := range []struct {
			m interface {
				AppendTo([]byte) ([]byte, error)
			}
			ref []byte
		}{{ch, marshalClientHello(ch)}, {sh, marshalServerHello(sh)}, {cm, marshalCertificate(cm)}} {
			want, err := c.m.AppendTo(nil)
			if err != nil {
				t.Fatalf("trial %d: %T: %v", trial, c.m, err)
			}
			if !bytes.Equal(want, c.ref) {
				t.Fatalf("trial %d: %T: AppendTo(nil) != reference encoding\n got %x\nwant %x", trial, c.m, want, c.ref)
			}
			got, err := c.m.AppendTo(append([]byte(nil), prefix...))
			if err != nil {
				t.Fatalf("trial %d: %T after prefix: %v", trial, c.m, err)
			}
			if !bytes.Equal(got, cat(prefix, want)) {
				t.Fatalf("trial %d: %T: AppendTo(prefix) != prefix ‖ AppendTo(nil)", trial, c.m)
			}
		}
	}
}

// TestPropertyAppendRecordMatchesWriteRecord: the append-into-scratch
// framing paths produce byte-for-byte what writeRecord and WriteAlert
// write, including multi-record fragmentation above the record-layer
// maximum.
func TestPropertyAppendRecordMatchesWriteRecord(t *testing.T) {
	r := propRand(t)
	sizes := []int{0, 1, 100, maxRecordPayload - 5, maxRecordPayload - 4, maxRecordPayload - 3, maxRecordPayload, 3 * maxRecordPayload}
	for trial := 0; trial < propertyTrials; trial++ {
		var body []byte
		if trial < len(sizes) {
			body = randBytes(r, sizes[trial])
		} else {
			body = randBytes(r, r.Intn(2*maxRecordPayload))
		}
		version := uint16(0x0300 + r.Intn(4))
		msgType := uint8(r.Intn(25))

		var w bytes.Buffer
		n := len(body)
		msg := append([]byte{msgType, byte(n >> 16), byte(n >> 8), byte(n)}, body...)
		if err := writeRecord(&w, RecordHandshake, version, msg); err != nil {
			t.Fatal(err)
		}
		if got := AppendHandshake(nil, version, msgType, body); !bytes.Equal(got, w.Bytes()) {
			t.Fatalf("trial %d: AppendHandshake != writeRecord for %d-byte body", trial, n)
		}

		w.Reset()
		a := Alert{Level: uint8(1 + r.Intn(2)), Description: uint8(r.Intn(100))}
		if err := WriteAlert(&w, version, a); err != nil {
			t.Fatal(err)
		}
		if got := AppendAlert(nil, version, a); !bytes.Equal(got, w.Bytes()) {
			t.Fatalf("trial %d: AppendAlert != WriteAlert", trial)
		}
	}
}

// TestPropertyParseInvertsMarshal: parse(marshal(m)) == m for every
// random message, and the reassembly reader delivers marshaled flights
// intact (marshal → frame → read → parse identity).
func TestPropertyParseInvertsMarshal(t *testing.T) {
	r := propRand(t)
	for trial := 0; trial < propertyTrials; trial++ {
		ch := randClientHello(r)
		body, err := ch.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		var ch2 ClientHello
		if err := ParseClientHello(body, &ch2); err != nil {
			t.Fatalf("trial %d: parse(marshal(ch)): %v", trial, err)
		}
		// AppendTo normalizes an empty compression vector to {0}.
		wantComp := ch.CompressionMethods
		if len(wantComp) == 0 {
			wantComp = []byte{0}
		}
		if ch2.Version != ch.Version || ch2.Random != ch.Random ||
			!bytes.Equal(ch2.SessionID, ch.SessionID) ||
			!reflect.DeepEqual(ch2.CipherSuites, ch.CipherSuites) ||
			!bytes.Equal(ch2.CompressionMethods, wantComp) ||
			ch2.ServerName != ch.ServerName {
			t.Fatalf("trial %d: ClientHello drifted:\n%+v\nvs\n%+v", trial, ch, ch2)
		}

		sh := randServerHello(r)
		body, err = sh.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		var sh2 ServerHello
		if err := ParseServerHello(body, &sh2); err != nil {
			t.Fatalf("trial %d: parse(marshal(sh)): %v", trial, err)
		}
		if sh2.Version != sh.Version || sh2.Random != sh.Random ||
			!bytes.Equal(sh2.SessionID, sh.SessionID) ||
			sh2.CipherSuite != sh.CipherSuite || sh2.CompressionMethod != sh.CompressionMethod {
			t.Fatalf("trial %d: ServerHello drifted", trial)
		}

		cm := &CertificateMsg{ChainDER: randChain(r)}
		body, err = cm.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		chain2, err := appendCertificateChain(nil, body)
		if err != nil {
			t.Fatalf("trial %d: parse(marshal(cm)): %v", trial, err)
		}
		if !reflect.DeepEqual(chain2, cm.ChainDER) {
			t.Fatalf("trial %d: chain drifted", trial)
		}

		// Frame the Certificate through the record layer with a random
		// scatter of handshake fragments and reassemble it.
		flight := AppendHandshake(nil, VersionTLS12, TypeCertificate, body)
		hr := NewHandshakeReader(NewRecordReader(bytes.NewReader(flight)))
		typ, got, err := hr.Next()
		if err != nil || typ != TypeCertificate {
			t.Fatalf("trial %d: reassembly: type=%d err=%v", trial, typ, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("trial %d: reassembled body differs from marshaled body", trial)
		}
	}
}
