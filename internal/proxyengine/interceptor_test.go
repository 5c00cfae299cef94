package proxyengine

// Tests for the interceptor's origin memo: an origin is dialled and
// parsed once per residency, the memo is bounded and single-flight, and
// everything that decides a connection's fate still runs per connection.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlsfof/internal/raceflag"
	"tlsfof/internal/telemetry"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

// scriptedConn is a client that has already sent its whole side of a
// probe and discards what it is served: HandleConn runs against it with no
// goroutine, pipe or socket, so only the interceptor's own work (and
// allocations) is on the path.
type scriptedConn struct {
	net.Conn // nil: a method HandleConn is not expected to call panics
	flight   []byte
	pos      int
	written  int
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if c.pos >= len(c.flight) {
		return 0, io.EOF
	}
	n := copy(p, c.flight[c.pos:])
	c.pos += n
	return n, nil
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.written += len(p)
	return len(p), nil
}

// probeFlight is the client half of tlswire.Probe as it appears on the
// wire: a ClientHello offering version for host, then the close_notify
// that aborts the handshake once the server flight is in.
func probeFlight(t testing.TB, host string, version uint16) []byte {
	t.Helper()
	ch := tlswire.ClientHello{Version: version, CipherSuites: tlswire.DefaultCipherSuites, ServerName: host}
	body, err := ch.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	flight := tlswire.AppendHandshake(nil, tlswire.VersionTLS10, tlswire.TypeClientHello, body)
	return tlswire.AppendAlert(flight, version,
		tlswire.Alert{Level: tlswire.AlertLevelWarning, Description: tlswire.AlertCloseNotify})
}

// countingOrigin is an upstream dialer serving chain to every handshake
// and counting how often it is dialled.
func countingOrigin(chain [][]byte) (Dialer, *atomic.Int64) {
	dials := new(atomic.Int64)
	return func(string) (net.Conn, error) {
		dials.Add(1)
		up, down := net.Pipe()
		go func() {
			tlswire.Respond(down, tlswire.ResponderConfig{
				Chain:   tlswire.StaticChain(chain),
				Timeout: 5 * time.Second,
			})
			down.Close()
		}()
		return up, nil
	}, dials
}

// dialThrough opens a client connection that ic intercepts on its own
// goroutine, as Serve would.
func dialThrough(ic *Interceptor) net.Conn {
	client, proxySide := net.Pipe()
	go func() {
		ic.HandleConn(proxySide)
		proxySide.Close()
	}()
	return client
}

// TestInterceptorOriginSingleFlight: a storm of first connections to one
// cold origin makes one upstream handshake, and every client is served
// the byte-identical forgery built from the one shared parsed chain.
func TestInterceptorOriginSingleFlight(t *testing.T) {
	const host = "stampede.example"
	_, authLeaf := authSetup(t, host)
	dial, dials := countingOrigin(authLeaf.ChainDER)
	ic := NewInterceptor(newEngine(t, Profile{ProductName: "Stampede", IssuerOrg: "Stampede"}), dial)

	const clients = 64
	chains := make([][][]byte, clients)
	errs := make([]error, clients)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer done.Done()
			client := dialThrough(ic)
			defer client.Close()
			start.Wait()
			res, err := tlswire.Probe(client, tlswire.ProbeOptions{ServerName: host, Timeout: 10 * time.Second})
			if err == nil {
				chains[i] = res.ChainDER
			}
			errs[i] = err
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !x509util.ChainsEqual(chains[i], chains[0]) {
			t.Fatalf("client %d was served a different forgery", i)
		}
	}
	if x509util.ChainsEqual(chains[0], authLeaf.ChainDER) {
		t.Fatal("clients saw the authoritative chain; interception failed")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("cold origin dialled %d times under %d concurrent first connections, want 1", n, clients)
	}
	st := ic.OriginStats()
	if st.Loads != 1 || st.Hits+st.Misses != clients || st.Size != 1 {
		t.Fatalf("origin memo stats %+v", st)
	}
}

// TestInterceptorOriginMemoBounded: SNI is client-chosen, so the kept set
// must not grow with it — cap+1 hosts leave at most cap origins, and the
// evicted one is simply dialled again.
func TestInterceptorOriginMemoBounded(t *testing.T) {
	const memoCap = 4
	_, authLeaf := authSetup(t, "bounded.example")
	dial, dials := countingOrigin(authLeaf.ChainDER)
	ic := newInterceptor(newEngine(t, Profile{ProductName: "Bounded", IssuerOrg: "Bounded"}), dial, memoCap)
	connect := func(host string) {
		t.Helper()
		if err := ic.HandleConn(&scriptedConn{flight: probeFlight(t, host, tlswire.VersionTLS12)}); err != nil {
			t.Fatalf("%s: %v", host, err)
		}
	}

	hosts := make([]string, memoCap+1)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d.bounded.example", i)
		connect(hosts[i])
	}
	st := ic.OriginStats()
	if st.Size > memoCap || st.Cap != memoCap || st.Evictions != 1 || dials.Load() != memoCap+1 {
		t.Fatalf("after %d hosts: stats %+v, %d dials", len(hosts), st, dials.Load())
	}
	var kept, evicted string
	for _, h := range hosts {
		if _, ok := ic.origins.Peek(originKey{host: h}); ok {
			kept = h
		} else {
			evicted = h
		}
	}
	connect(kept)
	if n := dials.Load(); n != memoCap+1 {
		t.Fatalf("kept origin %s was re-dialled (%d dials)", kept, n)
	}
	connect(evicted)
	if n := dials.Load(); n != memoCap+2 {
		t.Fatalf("evicted origin %s: %d dials, want %d", evicted, n, memoCap+2)
	}
	if got := ic.OriginStats().Size; got > memoCap {
		t.Fatalf("memo holds %d origins, cap %d", got, memoCap)
	}
	if got := NewInterceptor(ic.Engine, dial).OriginStats().Cap; got != DefaultForgeCacheCap {
		t.Fatalf("exported constructor cap = %d, want %d", got, DefaultForgeCacheCap)
	}
}

// TestInterceptorKeepsUnparseableOrigin: an origin serving garbage DER is
// dialled once, not once per connection, and every connection ends as the
// first did — the parse error, and nothing written to the client.
func TestInterceptorKeepsUnparseableOrigin(t *testing.T) {
	const host = "garbage.example"
	dial, dials := countingOrigin([][]byte{[]byte("not a certificate")})
	ic := NewInterceptor(newEngine(t, Profile{ProductName: "Garbage", IssuerOrg: "Garbage"}), dial)

	var first error
	for i := 0; i < 3; i++ {
		conn := &scriptedConn{flight: probeFlight(t, host, tlswire.VersionTLS12)}
		err := ic.HandleConn(conn)
		if err == nil {
			t.Fatalf("connection %d: garbage upstream chain accepted", i)
		}
		if i == 0 {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("connection %d ended with %q, the first with %q", i, err, first)
		}
		if conn.written != 0 {
			t.Fatalf("connection %d: %d bytes written to the client, want none (no alert)", i, conn.written)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("hostile origin dialled %d times, want 1", n)
	}
	if got := ic.Engine.CacheStats().Size; got != 0 {
		t.Fatalf("forged %d chains for an unparseable origin", got)
	}
}

// TestInterceptorRelayVersionKey: a version-relaying product makes one
// upstream handshake per version it offers; any other product makes one
// per host whatever its clients offer.
func TestInterceptorRelayVersionKey(t *testing.T) {
	const host = "relay.example"
	_, authLeaf := authSetup(t, host)
	offers := []uint16{tlswire.VersionTLS10, tlswire.VersionTLS11, tlswire.VersionTLS12, tlswire.VersionTLS10}

	for _, tc := range []struct {
		name  string
		relay bool
		want  int
	}{
		{"relaying", true, 3},
		{"fixed", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			profile := Profile{ProductName: "Relay", IssuerOrg: "Relay"}
			profile.Upstream.RelayClientVersion = tc.relay
			dial, dials := countingOrigin(authLeaf.ChainDER)
			ic := NewInterceptor(newEngine(t, profile), dial)
			for _, v := range offers {
				if err := ic.HandleConn(&scriptedConn{flight: probeFlight(t, host, v)}); err != nil {
					t.Fatalf("offer %04x: %v", v, err)
				}
			}
			if st := ic.OriginStats(); st.Size != tc.want || int(dials.Load()) != tc.want {
				t.Fatalf("%d entries, %d dials, want %d of each: %+v", st.Size, dials.Load(), tc.want, st)
			}
		})
	}
}

// TestInterceptorKeptOriginStillDecides: the memo holds bytes, not
// verdicts. Engine.Decide runs on every connection to a kept origin (read
// off the forge cache: N warm connections, N hits), the upstream stage is
// still traced, and the live clock still applies — once the kept chain
// expires, a proxy that rejects expired upstreams blocks without having
// dialled again.
func TestInterceptorKeptOriginStillDecides(t *testing.T) {
	const host = "kept.example"
	authCA, authLeaf := authSetup(t, host)
	dial, dials := countingOrigin(authLeaf.ChainDER)

	var now atomic.Pointer[time.Time]
	valid := auditNow()
	now.Store(&valid)
	profile := Profile{ProductName: "Kept", IssuerOrg: "Kept", UpstreamRoots: authCA.CertPool()}
	profile.Upstream.Validate = true
	profile.Upstream.Reject[DefectExpired] = true
	e, err := New(profile, Options{Pool: pool, Now: func() time.Time { return *now.Load() }})
	if err != nil {
		t.Fatal(err)
	}
	ic := NewInterceptor(e, dial)
	reg := telemetry.NewRegistry()
	ic.Tracer = telemetry.NewTracer(reg, 0)

	const warm = 5
	var served [][]byte
	for i := 0; i <= warm; i++ {
		client := dialThrough(ic)
		res, err := tlswire.Probe(client, tlswire.ProbeOptions{ServerName: host, Timeout: 5 * time.Second})
		client.Close()
		if err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
		if i == 0 {
			served = res.ChainDER
		} else if !x509util.ChainsEqual(res.ChainDER, served) {
			t.Fatalf("connection %d to a kept origin was served a different forgery", i)
		}
	}
	if st := e.CacheStats(); st.Hits != warm || st.Forges != 1 {
		t.Fatalf("forge cache after 1 cold + %d warm connections: %+v", warm, st)
	}
	if st := ic.OriginStats(); st.Hits != warm || st.Loads != 1 {
		t.Fatalf("origin memo after 1 cold + %d warm connections: %+v", warm, st)
	}

	expired := valid.AddDate(20, 0, 0)
	now.Store(&expired)
	conn := &scriptedConn{flight: probeFlight(t, host, tlswire.VersionTLS12)}
	if err := ic.HandleConn(conn); err != ErrUpstreamInvalid {
		t.Fatalf("expired kept chain: err = %v, want ErrUpstreamInvalid", err)
	}
	if conn.written == 0 {
		t.Fatal("blocked connection got no alert")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("origin dialled %d times, want 1", n)
	}
	upstream := reg.Histogram(telemetry.StageMetric(telemetry.StageMitmUpstrm), "").Snapshot()
	if upstream.Count != warm+2 {
		t.Fatalf("mitm_upstream recorded %d times over %d connections", upstream.Count, warm+2)
	}
}

// maxHandleConnKeptAllocs is the allocation budget of one intercepted
// connection to a kept origin, no tracer mounted. It spends three: the SNI
// string twice (the sniff, then the responder parsing the replayed hello)
// and the responder's chain selector. Re-parsing the kept chain on every
// connection cost 102.
const maxHandleConnKeptAllocs = 4

// keptOriginConn returns an interceptor that already holds host's origin
// and a scripted connection to it; rewind the connection (pos = 0) to
// connect again.
func keptOriginConn(t testing.TB, host string) (*Interceptor, *scriptedConn) {
	t.Helper()
	_, authLeaf := authSetup(t, host)
	dial, _ := countingOrigin(authLeaf.ChainDER)
	ic := NewInterceptor(newEngine(t, Profile{ProductName: "KeptCo", IssuerOrg: "KeptCo"}), dial)
	conn := &scriptedConn{flight: probeFlight(t, host, tlswire.VersionTLS12)}
	if err := ic.HandleConn(conn); err != nil {
		t.Fatal(err)
	}
	return ic, conn
}

// TestHandleConnKeptOriginAllocs pins the interceptor hop of the
// live-wire loop: a connection to a kept origin re-derives nothing.
func TestHandleConnKeptOriginAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ic, conn := keptOriginConn(t, "allocs.example")
	allocs := testing.AllocsPerRun(200, func() {
		conn.pos = 0
		if err := ic.HandleConn(conn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxHandleConnKeptAllocs {
		t.Fatalf("warm HandleConn costs %.1f allocs/op, budget %d", allocs, maxHandleConnKeptAllocs)
	}
}
