package proxyengine

import (
	"bytes"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tlsfof/internal/chaincache"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

// Dialer opens a connection toward the authoritative server for host. The
// in-memory network and real TCP both satisfy it.
type Dialer func(host string) (net.Conn, error)

// Interceptor mounts an Engine on the wire: it terminates client TLS
// handshakes, fetches the authoritative chain from upstream, consults the
// engine, and either serves the forged chain, splices the connection
// through untouched (whitelist), or blocks it. This is Figure 3 of the
// paper as running code.
type Interceptor struct {
	Engine *Engine
	// Dial reaches the authoritative server; required.
	Dial Dialer
	// Timeout bounds each upstream probe (default 10s).
	Timeout time.Duration
	// ClientTimeout bounds the client-facing handshake: the ClientHello
	// sniff and, on interception, the forged-flight exchange. Without it
	// a slowloris client that opens a connection and trickles (or stops
	// sending) bytes parks a handler goroutine forever. When set, the
	// interceptor owns the connection's read deadline during the sniff
	// (it is cleared once the hello parses, erasing any deadline the
	// caller installed) — use either ClientTimeout or caller-managed
	// deadlines, not both. 0 preserves the old unbounded behavior for
	// callers that set deadlines themselves (cmd/mitmd sets a
	// whole-connection deadline).
	ClientTimeout time.Duration
	// Tracer, when non-nil, records per-stage latencies (sniff, upstream
	// fetch, forge decision, respond/splice) and — for probes that carry
	// a trace ID in their ClientHello session id — per-trace spans. Nil
	// keeps the handler free of clock reads.
	Tracer *telemetry.Tracer

	origins *chaincache.LRU[originKey, *origin]
}

// originKey names one kept upstream handshake: the host, plus the offered
// version only under a RelayClientVersion profile (0 otherwise).
type originKey struct {
	host    string
	version uint16
}

func (k originKey) hash() uint64 { return hostHash(k.host) + uint64(k.version) }

// origin is what the proxy's own handshake learned from one authoritative
// server: the chain as served and as parsed, immutable once stored and
// shared read-only by every connection to that origin. A chain that does
// not parse is kept with its error, so a hostile origin is dialled once
// rather than on every connection.
type origin struct {
	der    [][]byte
	parsed []*x509.Certificate
	err    error
}

// NewInterceptor wires an engine to an upstream dialer.
func NewInterceptor(engine *Engine, dial Dialer) *Interceptor {
	return newInterceptor(engine, dial, DefaultForgeCacheCap)
}

// newInterceptor takes the origin memo's cap so tests can overflow it.
func newInterceptor(engine *Engine, dial Dialer, originCap int) *Interceptor {
	return &Interceptor{Engine: engine, Dial: dial,
		origins: chaincache.NewLRU[originKey, *origin](originCap, 0, originKey.hash)}
}

// OriginStats snapshots the origin memo: Loads counts upstream handshakes
// (one per origin per residency), Hits connections served from a kept
// chain.
func (ic *Interceptor) OriginStats() chaincache.LRUStats { return ic.origins.Stats() }

// origin returns the kept authoritative chain for host, performing the
// proxy's own handshake upstream — the right-hand TLS connection in
// Figure 3 — on the first connection only: the memo is a front over
// chaincache.LRU, so it is bounded (SNI is client-chosen) and concurrent
// first connections share one handshake. The offer on that handshake (TLS
// version, cipher list) is the profile's upstream policy in action: a
// product with a hardcoded old stack downgrades every client behind it
// here, and a version-relaying product re-dials per client version. A
// dial or handshake failure is not kept; the next connection retries.
func (ic *Interceptor) origin(host string, clientVersion uint16) (*origin, error) {
	pol := ic.Engine.Profile.Upstream
	version := pol.OfferVersion(clientVersion)
	key := originKey{host: host}
	if pol.RelayClientVersion {
		key.version = version
	}
	return ic.origins.GetOrLoad(key, func() (*origin, error) {
		conn, err := ic.Dial(host)
		if err != nil {
			return nil, fmt.Errorf("proxyengine: upstream dial %q: %w", host, err)
		}
		defer conn.Close()
		timeout := ic.Timeout
		if timeout == 0 {
			timeout = 10 * time.Second
		}
		res, err := tlswire.Probe(conn, tlswire.ProbeOptions{
			ServerName:   host,
			Version:      version,
			CipherSuites: pol.OfferCiphers(),
			Timeout:      timeout,
		})
		if err != nil {
			return nil, fmt.Errorf("proxyengine: upstream probe %q: %w", host, err)
		}
		o := &origin{der: res.ChainDER}
		o.parsed, o.err = x509util.ParseChain(res.ChainDER)
		return o, nil
	})
}

// connState is the pooled per-connection scratch of the interception hot
// path: the ClientHello sniff buffer, record/handshake read buffers, and
// the parsed hello. One proxy process serving thousands of connections
// per second re-grows none of it.
type connState struct {
	sniffed bytes.Buffer
	tee     teeSniffer
	rr      *tlswire.RecordReader
	hr      *tlswire.HandshakeReader
	ch      tlswire.ClientHello
	replay  replayConn
}

// teeSniffer mirrors io.TeeReader without the per-connection allocation.
type teeSniffer struct {
	r   io.Reader
	buf *bytes.Buffer
}

func (t *teeSniffer) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.buf.Write(p[:n])
	}
	return n, err
}

var connStatePool = sync.Pool{
	New: func() any {
		cs := &connState{}
		cs.tee.buf = &cs.sniffed
		cs.rr = tlswire.NewRecordReader(nil)
		cs.hr = tlswire.NewHandshakeReader(cs.rr)
		return cs
	},
}

// HandleConn processes one intercepted client connection. It reads the
// ClientHello to learn the target host (SNI), then executes the engine's
// decision on the wire. The caller owns closing clientConn.
func (ic *Interceptor) HandleConn(clientConn net.Conn) error {
	// Buffer everything we read while sniffing the ClientHello so a
	// passthrough can replay it to the upstream byte-for-byte.
	cs := connStatePool.Get().(*connState)
	defer connStatePool.Put(cs)
	cs.sniffed.Reset()
	cs.tee.r = clientConn
	cs.rr.Reset(&cs.tee)
	cs.hr.Reset(cs.rr)
	if ic.ClientTimeout > 0 {
		// Bound the sniff alone; the deadline is cleared once the hello
		// is parsed so a long-lived passthrough splice is not killed by
		// the handshake budget.
		clientConn.SetReadDeadline(time.Now().Add(ic.ClientTimeout))
	}
	sniffStart := ic.stageStart()
	msgType, body, err := cs.hr.Next()
	if err != nil {
		return fmt.Errorf("proxyengine: read ClientHello: %w", err)
	}
	if msgType != tlswire.TypeClientHello {
		return fmt.Errorf("proxyengine: expected ClientHello, got type %d", msgType)
	}
	if err := tlswire.ParseClientHello(body, &cs.ch); err != nil {
		return err
	}
	// Probes announce their telemetry trace ID in the session-id field;
	// any other client's session id decodes to 0 (untraced).
	var trace telemetry.TraceID
	if ic.Tracer != nil {
		trace, _ = telemetry.TraceFromSessionID(cs.ch.SessionID)
		ic.Tracer.Record(trace, telemetry.StageMitmSniff, sniffStart, time.Since(sniffStart))
	}
	if ic.ClientTimeout > 0 {
		clientConn.SetReadDeadline(time.Time{})
	}
	host := HostnameForSNI(cs.ch.ServerName)
	if host == "" {
		return fmt.Errorf("proxyengine: client sent no SNI; cannot route")
	}

	upstreamStart := ic.stageStart()
	up, err := ic.origin(host, cs.ch.Version)
	if ic.Tracer != nil {
		ic.Tracer.Record(trace, telemetry.StageMitmUpstrm, upstreamStart, time.Since(upstreamStart))
	}
	if err != nil {
		_ = tlswire.WriteAlert(clientConn, tlswire.VersionTLS12,
			tlswire.Alert{Level: tlswire.AlertLevelFatal, Description: tlswire.AlertInternalError})
		return err
	}
	if up.err != nil {
		return up.err
	}

	forgeStart := ic.stageStart()
	decision, err := ic.Engine.Decide(host, up.parsed, up.der)
	if ic.Tracer != nil {
		ic.Tracer.Record(trace, telemetry.StageMitmForge, forgeStart, time.Since(forgeStart))
	}
	switch decision.Action {
	case ActionBlock:
		// Bitdefender behavior: refuse the connection outright.
		_ = tlswire.WriteAlert(clientConn, tlswire.VersionTLS12,
			tlswire.Alert{Level: tlswire.AlertLevelFatal, Description: tlswire.AlertHandshakeFailure})
		return err

	case ActionPassthrough:
		spliceStart := ic.stageStart()
		err := ic.splice(clientConn, host, cs.sniffed.Bytes())
		if ic.Tracer != nil {
			ic.Tracer.Record(trace, telemetry.StageMitmSplice, spliceStart, time.Since(spliceStart))
		}
		return err

	case ActionIntercept:
		if err != nil {
			return err
		}
		cs.replay.Conn = clientConn
		cs.replay.pre.Reset(cs.sniffed.Bytes())
		respondStart := ic.stageStart()
		err := tlswire.Respond(&cs.replay, tlswire.ResponderConfig{
			Chain:   tlswire.StaticChain(decision.ChainDER),
			Timeout: ic.ClientTimeout,
		})
		if ic.Tracer != nil {
			ic.Tracer.Record(trace, telemetry.StageMitmRespond, respondStart, time.Since(respondStart))
		}
		return err
	default:
		return fmt.Errorf("proxyengine: unknown action %v", decision.Action)
	}
}

// stageStart reads the clock only when a tracer will consume it.
func (ic *Interceptor) stageStart() time.Time {
	if ic.Tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// splice connects the client to the real upstream and copies bytes both
// ways — whitelisted traffic is genuinely untouched.
func (ic *Interceptor) splice(clientConn net.Conn, host string, alreadyRead []byte) error {
	upstream, err := ic.Dial(host)
	if err != nil {
		return fmt.Errorf("proxyengine: passthrough dial %q: %w", host, err)
	}
	defer upstream.Close()
	if _, err := upstream.Write(alreadyRead); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		io.Copy(upstream, clientConn)
		// Half-close toward upstream if supported so the server sees EOF.
		if cw, ok := upstream.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
		close(done)
	}()
	io.Copy(clientConn, upstream)
	// The upstream side is finished. A client that holds its half open
	// (never sends EOF) would park the client→upstream copy — and this
	// handler — forever; expire its read so the splice always unwinds.
	// The deadline is deliberately not cleared afterwards: the spliced
	// connection is over, every caller closes it on return, and a zero
	// clear would stomp a caller-installed deadline.
	clientConn.SetReadDeadline(time.Now())
	<-done
	return nil
}

// Serve accepts and handles connections until ln closes. Per-connection
// errors go to onErr when non-nil.
func (ic *Interceptor) Serve(ln net.Listener, onErr func(error)) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			if err := ic.HandleConn(conn); err != nil && onErr != nil {
				onErr(err)
			}
		}()
	}
}

// replayConn replays pre-read bytes before continuing with the live
// connection.
type replayConn struct {
	net.Conn
	pre bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.pre.Len() > 0 {
		return c.pre.Read(p)
	}
	return c.Conn.Read(p)
}
