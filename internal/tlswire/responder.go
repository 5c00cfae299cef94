package tlswire

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"tlsfof/internal/resilient"
)

// ChainSelector returns the certificate chain to present for a given SNI
// name ("" when the client sent none). Returning an error aborts the
// handshake with handshake_failure.
type ChainSelector func(serverName string) (chainDER [][]byte, err error)

// StaticChain returns a ChainSelector that always presents one chain,
// regardless of SNI — how single-site servers of the study period behaved.
func StaticChain(chainDER [][]byte) ChainSelector {
	return func(string) ([][]byte, error) { return chainDER, nil }
}

// ResponderConfig configures Respond.
type ResponderConfig struct {
	// Chain selects the presented certificate chain; required.
	Chain ChainSelector
	// Version is the negotiated version echoed in ServerHello (default
	// TLS 1.2, capped at the client's offer).
	Version uint16
	// CipherSuite is the selected suite (default: first RSA suite the
	// client offered, falling back to TLS_RSA_WITH_AES_128_CBC_SHA).
	CipherSuite uint16
	// Timeout bounds the exchange when conn supports deadlines.
	Timeout time.Duration
	// Entropy supplies the server random (crypto/rand when nil).
	Entropy io.Reader
	// OnClientHello, when non-nil, observes the parsed ClientHello —
	// interception proxies use this to learn the target host from SNI.
	OnClientHello func(*ClientHello)
}

// responder holds the reusable per-connection state of the serving path:
// read buffers, the parsed ClientHello, and the flight-assembly scratch.
// Pooled so a loaded responder (the authoritative origin or a forging
// proxy serving thousands of connections) does not re-grow buffers per
// connection.
type responder struct {
	rr      RecordReader
	hr      HandshakeReader
	ch      ClientHello
	sh      ServerHello
	scratch []byte
}

var responderPool = sync.Pool{
	New: func() any { return &responder{scratch: make([]byte, 0, 4096)} },
}

// Respond serves the plaintext server flight of a TLS handshake on conn:
// read ClientHello, write ServerHello + Certificate + ServerHelloDone —
// assembled in one buffer and written in a single call — then read until
// the peer aborts or the handshake would need to continue.
//
// It implements exactly as much server as the measurement needs: the
// authoritative host the probe contacts, and the client-facing half of
// every forging proxy. It returns once the peer closes, aborts, or sends
// its next flight (which it cannot usefully do without a key exchange).
func Respond(conn net.Conn, cfg ResponderConfig) error {
	rs := responderPool.Get().(*responder)
	defer responderPool.Put(rs)
	return rs.respond(conn, cfg)
}

func (rs *responder) respond(conn net.Conn, cfg ResponderConfig) error {
	if cfg.Chain == nil {
		return errors.New("tlswire: ResponderConfig.Chain is required")
	}
	entropy := cfg.Entropy
	if entropy == nil {
		entropy = rand.Reader
	}
	if cfg.Timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(cfg.Timeout)); err == nil {
			defer conn.SetDeadline(time.Time{})
		}
	}

	rs.rr.Reset(conn)
	rs.hr.Reset(&rs.rr)
	hr := &rs.hr
	msgType, body, err := hr.Next()
	if err == ErrAlertReceived {
		return fmt.Errorf("tlswire: alert before ClientHello (desc=%d)", hr.LastAlert.Description)
	}
	if err != nil {
		return err
	}
	if msgType != TypeClientHello {
		_ = WriteAlert(conn, VersionTLS12, Alert{AlertLevelFatal, AlertUnexpectedMsg})
		return fmt.Errorf("tlswire: expected ClientHello, got message type %d", msgType)
	}
	ch := &rs.ch
	if err := ParseClientHello(body, ch); err != nil {
		_ = WriteAlert(conn, VersionTLS12, Alert{AlertLevelFatal, AlertHandshakeFailure})
		return err
	}
	if cfg.OnClientHello != nil {
		cfg.OnClientHello(ch)
	}

	version := cfg.Version
	if version == 0 {
		version = VersionTLS12
	}
	if ch.Version < version {
		version = ch.Version
	}
	suite := cfg.CipherSuite
	if suite == 0 {
		suite = TLSRSAWithAES128CBCSHA
		for _, offered := range ch.CipherSuites {
			if slices.Contains(DefaultCipherSuites, offered) {
				suite = offered
				break
			}
		}
	}

	chain, err := cfg.Chain(ch.ServerName)
	if err != nil || len(chain) == 0 {
		_ = WriteAlert(conn, version, Alert{AlertLevelFatal, AlertHandshakeFailure})
		if err == nil {
			err = errors.New("tlswire: chain selector returned empty chain")
		}
		return fmt.Errorf("tlswire: no chain for %q: %w", ch.ServerName, err)
	}

	rs.sh = ServerHello{Version: version, CipherSuite: suite, SessionID: rs.sh.SessionID[:0]}
	if _, err := io.ReadFull(entropy, rs.sh.Random[:]); err != nil {
		return fmt.Errorf("tlswire: server random: %w", err)
	}
	// Assemble the whole server flight — ServerHello + Certificate +
	// ServerHelloDone — in one scratch buffer: both message bodies go at
	// the front, the framed records follow, and a single Write delivers
	// the flight. The scratch layout is [shBody][cmBody][flight...]; only
	// the flight region hits the wire.
	scratch, err := rs.sh.AppendTo(rs.scratch[:0])
	if err != nil {
		return err
	}
	shEnd := len(scratch)
	cm := CertificateMsg{ChainDER: chain}
	if scratch, err = cm.AppendTo(scratch); err != nil {
		return err
	}
	cmEnd := len(scratch)
	scratch = AppendHandshake(scratch, version, TypeServerHello, scratch[:shEnd])
	scratch = AppendHandshake(scratch, version, TypeCertificate, scratch[shEnd:cmEnd])
	scratch = AppendHandshake(scratch, version, TypeServerHelloDone, nil)
	rs.scratch = scratch[:0]
	if _, err := conn.Write(scratch[cmEnd:]); err != nil {
		return fmt.Errorf("tlswire: send server flight: %w", err)
	}

	// Wait for the client's reaction. The measurement tool aborts here
	// with close_notify; anything else (EOF, reset, a ClientKeyExchange we
	// cannot process) also ends the exchange.
	_, _, err = hr.Next()
	if err == ErrAlertReceived || err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	if err != nil {
		var netErr net.Error
		if errors.As(err, &netErr) {
			return nil // peer went away; the flight was served
		}
		return err
	}
	// The client tried to continue the handshake; we never implement key
	// exchange, so refuse.
	_ = WriteAlert(conn, version, Alert{AlertLevelFatal, AlertHandshakeFailure})
	return nil
}

// Server serves the partial handshake on each connection from ln, through
// the default resilient.Pool, until ln is closed. Per-connection errors go
// to onErr when non-nil and are otherwise dropped (a measurement host must
// not die because one client sent garbage).
func Server(ln net.Listener, cfg ResponderConfig, onErr func(error)) {
	resilient.Serve(ln, func(conn net.Conn) error { return Respond(conn, cfg) }, onErr)
}
