package tlswire

import (
	"encoding/binary"
	"fmt"
)

// Handshake message types (RFC 5246 §7.4).
const (
	TypeClientHello     uint8 = 1
	TypeServerHello     uint8 = 2
	TypeCertificate     uint8 = 11
	TypeServerKeyExch   uint8 = 12
	TypeCertRequest     uint8 = 13
	TypeServerHelloDone uint8 = 14
)

// Extension numbers used by the probe.
const (
	extServerName          uint16 = 0
	extSupportedGroups     uint16 = 10
	extECPointFormats      uint16 = 11
	extSignatureAlgorithms uint16 = 13
	extRenegotiationInfo   uint16 = 0xff01
)

// buffer is a bounds-checked cursor over a byte slice, in the style of
// golang.org/x/crypto/cryptobyte but stdlib-only. All parse errors carry
// the message context supplied at construction.
type buffer struct {
	data []byte
	off  int
	ctx  string
}

func newBuffer(data []byte, ctx string) *buffer {
	return &buffer{data: data, ctx: ctx}
}

func (b *buffer) remaining() int { return len(b.data) - b.off }

func (b *buffer) take(n int) ([]byte, error) {
	if b.remaining() < n {
		return nil, fmt.Errorf("tlswire: %s: need %d bytes at offset %d, have %d", b.ctx, n, b.off, b.remaining())
	}
	out := b.data[b.off : b.off+n]
	b.off += n
	return out, nil
}

func (b *buffer) u8() (uint8, error) {
	v, err := b.take(1)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func (b *buffer) u16() (uint16, error) {
	v, err := b.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(v), nil
}

func (b *buffer) u24() (int, error) {
	v, err := b.take(3)
	if err != nil {
		return 0, err
	}
	return int(v[0])<<16 | int(v[1])<<8 | int(v[2]), nil
}

func (b *buffer) vec8() ([]byte, error) {
	n, err := b.u8()
	if err != nil {
		return nil, err
	}
	return b.take(int(n))
}

func (b *buffer) vec16() ([]byte, error) {
	n, err := b.u16()
	if err != nil {
		return nil, err
	}
	return b.take(int(n))
}

// ClientHello is a decoded ClientHello message.
type ClientHello struct {
	Version            uint16
	Random             [32]byte
	SessionID          []byte
	CipherSuites       []uint16
	CompressionMethods []byte
	// ServerName is the SNI host_name, "" when absent. Flash-era stacks
	// often omitted SNI; the responder must tolerate that.
	ServerName string
}

// sigAlgsOffer is the signature_algorithms payload the probe offers: RSA
// with SHA-256/SHA-1 — what a 2014 client stack advertised.
var sigAlgsOffer = [4]byte{0x04, 0x01, 0x02, 0x01}

// AppendTo appends the encoded ClientHello handshake body (without the
// 4-byte handshake header) to dst and returns the extended slice, so a
// caller can reuse one scratch buffer across probes.
func (ch *ClientHello) AppendTo(dst []byte) ([]byte, error) {
	if len(ch.SessionID) > 32 {
		return nil, fmt.Errorf("tlswire: session id of %d bytes", len(ch.SessionID))
	}
	if len(ch.CipherSuites) == 0 {
		return nil, fmt.Errorf("tlswire: ClientHello needs at least one cipher suite")
	}
	// Extension lengths are computed up front so the whole message appends
	// into dst without intermediate buffers.
	const sigAlgExtLen = 4 + 2 + len(sigAlgsOffer) // header + list length + payload
	const renegExtLen = 4 + 1                      // header + one zero byte
	extLen := sigAlgExtLen + renegExtLen
	if ch.ServerName != "" {
		// header + list(u16) + {type(1), name(u16), name}
		extLen += 4 + 2 + 3 + len(ch.ServerName)
	}

	dst = appendU16(dst, ch.Version)
	dst = append(dst, ch.Random[:]...)
	dst = append(dst, byte(len(ch.SessionID)))
	dst = append(dst, ch.SessionID...)
	dst = appendU16(dst, uint16(len(ch.CipherSuites)*2))
	for _, cs := range ch.CipherSuites {
		dst = appendU16(dst, cs)
	}
	comp := ch.CompressionMethods
	if len(comp) == 0 {
		comp = zeroCompression[:]
	}
	dst = append(dst, byte(len(comp)))
	dst = append(dst, comp...)
	dst = appendU16(dst, uint16(extLen))
	if ch.ServerName != "" {
		// server_name extension: list(u16) of {type(1)=host_name, name(u16)}.
		dst = appendU16(dst, extServerName)
		dst = appendU16(dst, uint16(2+3+len(ch.ServerName)))
		dst = appendU16(dst, uint16(3+len(ch.ServerName)))
		dst = append(dst, 0) // host_name
		dst = appendU16(dst, uint16(len(ch.ServerName)))
		dst = append(dst, ch.ServerName...)
	}
	dst = appendU16(dst, extSignatureAlgorithms)
	dst = appendU16(dst, uint16(len(sigAlgsOffer)+2))
	dst = appendU16(dst, uint16(len(sigAlgsOffer)))
	dst = append(dst, sigAlgsOffer[:]...)
	// empty renegotiation_info, as OpenSSL-era clients sent.
	dst = appendU16(dst, extRenegotiationInfo)
	dst = appendU16(dst, 1)
	dst = append(dst, 0)
	return dst, nil
}

// zeroCompression is the default compression_methods vector (null only).
var zeroCompression = [1]byte{0}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

// ParseClientHello decodes a ClientHello handshake body into ch,
// overwriting all fields. Extension bytes other than server_name are
// skipped. Every field is copied out of body (reusing ch's existing
// capacity), so ch stays valid after the caller's buffer is recycled.
func ParseClientHello(body []byte, ch *ClientHello) error {
	b := newBuffer(body, "ClientHello")
	var err error
	if ch.Version, err = b.u16(); err != nil {
		return err
	}
	random, err := b.take(32)
	if err != nil {
		return err
	}
	copy(ch.Random[:], random)
	sessionID, err := b.vec8()
	if err != nil {
		return err
	}
	if len(sessionID) > 32 {
		// RFC 5246 §7.4.1.2 bounds SessionID at 32 bytes; AppendTo refuses
		// longer ones, so accepting them here would make parse→marshal
		// asymmetric (surfaced by FuzzParseServerHello's twin of this).
		return fmt.Errorf("tlswire: ClientHello: session id of %d bytes exceeds 32", len(sessionID))
	}
	ch.SessionID = append(ch.SessionID[:0], sessionID...)
	suites, err := b.vec16()
	if err != nil {
		return err
	}
	if len(suites)%2 != 0 {
		return fmt.Errorf("tlswire: ClientHello: odd cipher suite vector length %d", len(suites))
	}
	if len(suites) == 0 {
		// A ClientHello offering nothing is protocol-invalid (and
		// unmarshalable); surfaced by FuzzParseClientHello.
		return fmt.Errorf("tlswire: ClientHello: empty cipher suite vector")
	}
	ch.CipherSuites = ch.CipherSuites[:0]
	for i := 0; i < len(suites); i += 2 {
		ch.CipherSuites = append(ch.CipherSuites, binary.BigEndian.Uint16(suites[i:]))
	}
	comp, err := b.vec8()
	if err != nil {
		return err
	}
	ch.CompressionMethods = append(ch.CompressionMethods[:0], comp...)
	ch.ServerName = ""
	if b.remaining() == 0 {
		return nil // extensions are optional
	}
	exts, err := b.vec16()
	if err != nil {
		return err
	}
	eb := newBuffer(exts, "ClientHello extensions")
	for eb.remaining() > 0 {
		extType, err := eb.u16()
		if err != nil {
			return err
		}
		extData, err := eb.vec16()
		if err != nil {
			return err
		}
		if extType != extServerName {
			continue
		}
		sb := newBuffer(extData, "server_name")
		list, err := sb.vec16()
		if err != nil {
			return err
		}
		lb := newBuffer(list, "server_name list")
		for lb.remaining() > 0 {
			nameType, err := lb.u8()
			if err != nil {
				return err
			}
			name, err := lb.vec16()
			if err != nil {
				return err
			}
			if nameType == 0 {
				ch.ServerName = string(name)
			}
		}
	}
	return nil
}

// ServerHello is a decoded ServerHello message.
type ServerHello struct {
	Version           uint16
	Random            [32]byte
	SessionID         []byte
	CipherSuite       uint16
	CompressionMethod uint8
}

// AppendTo appends the encoded ServerHello body to dst and returns the
// extended slice.
func (sh *ServerHello) AppendTo(dst []byte) ([]byte, error) {
	if len(sh.SessionID) > 32 {
		return nil, fmt.Errorf("tlswire: session id of %d bytes", len(sh.SessionID))
	}
	dst = appendU16(dst, sh.Version)
	dst = append(dst, sh.Random[:]...)
	dst = append(dst, byte(len(sh.SessionID)))
	dst = append(dst, sh.SessionID...)
	dst = appendU16(dst, sh.CipherSuite)
	dst = append(dst, sh.CompressionMethod)
	return dst, nil
}

// ParseServerHello decodes a ServerHello handshake body into sh. Trailing
// extensions are tolerated and skipped. All fields are copied out of body
// (reusing sh's existing capacity).
func ParseServerHello(body []byte, sh *ServerHello) error {
	b := newBuffer(body, "ServerHello")
	var err error
	if sh.Version, err = b.u16(); err != nil {
		return err
	}
	random, err := b.take(32)
	if err != nil {
		return err
	}
	copy(sh.Random[:], random)
	sessionID, err := b.vec8()
	if err != nil {
		return err
	}
	if len(sessionID) > 32 {
		// RFC 5246 §7.4.1.3 bounds SessionID at 32 bytes (surfaced by
		// FuzzParseServerHello: AppendTo refuses what parse accepted).
		return fmt.Errorf("tlswire: ServerHello: session id of %d bytes exceeds 32", len(sessionID))
	}
	sh.SessionID = append(sh.SessionID[:0], sessionID...)
	if sh.CipherSuite, err = b.u16(); err != nil {
		return err
	}
	if sh.CompressionMethod, err = b.u8(); err != nil {
		return err
	}
	return nil
}

// CertificateMsg is a decoded Certificate message: the DER chain exactly as
// sent, leaf first.
type CertificateMsg struct {
	ChainDER [][]byte
}

// AppendTo appends the encoded Certificate body to dst and returns the
// extended slice.
func (cm *CertificateMsg) AppendTo(dst []byte) ([]byte, error) {
	inner := 0
	for _, der := range cm.ChainDER {
		if len(der) >= 1<<24 {
			return nil, fmt.Errorf("tlswire: certificate of %d bytes", len(der))
		}
		inner += 3 + len(der)
	}
	if inner >= 1<<24 {
		return nil, fmt.Errorf("tlswire: certificate chain of %d bytes", inner)
	}
	dst = appendU24(dst, inner)
	for _, der := range cm.ChainDER {
		dst = appendU24(dst, len(der))
		dst = append(dst, der...)
	}
	return dst, nil
}

func appendU24(b []byte, v int) []byte {
	return append(b, byte(v>>16), byte(v>>8), byte(v))
}

// appendCertificateChain decodes a Certificate body, appending the chain
// entries to dst. The entries are copies and remain valid indefinitely:
// the whole certificate list is copied into one arena allocation that
// every entry subslices. It is the allocation floor of the capture path:
// the chain must escape into the report, so it costs exactly the arena and
// (when dst lacks capacity) the slice header.
func appendCertificateChain(dst [][]byte, body []byte) ([][]byte, error) {
	b := newBuffer(body, "Certificate")
	total, err := b.u24()
	if err != nil {
		return nil, err
	}
	list, err := b.take(total)
	if err != nil {
		return nil, err
	}
	// Pre-count the entries so the chain header is allocated exactly once
	// at the right capacity (an append-grown [][]byte would cost one
	// allocation per doubling).
	count := 0
	for cb := newBuffer(list, "Certificate list"); cb.remaining() > 0; count++ {
		n, err := cb.u24()
		if err != nil {
			return nil, err
		}
		if _, err := cb.take(n); err != nil {
			return nil, err
		}
	}
	if free := cap(dst) - len(dst); free < count {
		grown := make([][]byte, len(dst), len(dst)+count)
		copy(grown, dst)
		dst = grown
	}
	// One arena copy up front; the views handed out below are immutable
	// and own their lifetime independently of the caller's body buffer.
	arena := make([]byte, len(list))
	copy(arena, list)
	lb := newBuffer(arena, "Certificate list")
	n0 := len(dst)
	for lb.remaining() > 0 {
		n, err := lb.u24()
		if err != nil {
			return nil, err
		}
		der, err := lb.take(n)
		if err != nil {
			return nil, err
		}
		dst = append(dst, der)
	}
	if len(dst) == n0 {
		return nil, fmt.Errorf("tlswire: empty certificate chain")
	}
	return dst, nil
}

// AppendHandshake appends body framed as a handshake message of the given
// type, fragmented into handshake records, to dst and returns the
// extended slice. Flights built this way reach the socket in one write.
func AppendHandshake(dst []byte, version uint16, msgType uint8, body []byte) []byte {
	// The logical record payload is the 4-byte handshake header followed
	// by body; fragment that stream over records without concatenating it.
	var hdr [4]byte
	hdr[0] = msgType
	hdr[1], hdr[2], hdr[3] = byte(len(body)>>16), byte(len(body)>>8), byte(len(body))
	head := hdr[:]
	for first := true; first || len(head)+len(body) > 0; first = false {
		n := len(head) + len(body)
		if n > maxRecordPayload {
			n = maxRecordPayload
		}
		dst = append(dst, RecordHandshake, byte(version>>8), byte(version), byte(n>>8), byte(n))
		take := copyLimited(&head, n)
		dst = append(dst, take...)
		take = copyLimited(&body, n-len(take))
		dst = append(dst, take...)
	}
	return dst
}

// copyLimited slices off up to n bytes from *src, advancing it.
func copyLimited(src *[]byte, n int) []byte {
	if n > len(*src) {
		n = len(*src)
	}
	out := (*src)[:n]
	*src = (*src)[n:]
	return out
}
