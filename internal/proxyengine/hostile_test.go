package proxyengine

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/faultnet"
	"tlsfof/internal/tlswire"
)

// hostileWorld wires an interceptor over net.Pipe: the upstream is a
// tlswire responder serving the authoritative chain, the client side is
// fault-wrapped by the given plan.
func hostileWorld(t *testing.T, host string, plan *faultnet.Plan) (*Interceptor, func() net.Conn) {
	t.Helper()
	_, authLeaf := authSetup(t, host)
	e := newEngine(t, Profile{ProductName: "HostileTest", IssuerOrg: "HostileTest", KeyBits: 1024})
	upstream, _ := countingOrigin(authLeaf.ChainDER)
	ic := NewInterceptor(e, upstream)
	ic.Timeout = 5 * time.Second
	ic.ClientTimeout = 300 * time.Millisecond
	return ic, func() net.Conn { return plan.Wrap(dialThrough(ic)) }
}

// TestInterceptorSniffsFragmentedClientHello pins the sniff-replay path
// under byte-level fragmentation: a ClientHello trickled 3 bytes per
// segment must still be sniffed, replayed, and answered with a forged
// chain.
func TestInterceptorSniffsFragmentedClientHello(t *testing.T) {
	plan := faultnet.NewPlan(21, faultnet.Scenario{Name: "fragment", WriteFragment: 3, ReadFragment: 7})
	_, dial := hostileWorld(t, "frag.example.test", plan)
	conn := dial()
	defer conn.Close()
	res, err := tlswire.Probe(conn, tlswire.ProbeOptions{
		ServerName: "frag.example.test",
		Timeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("probe through fragmenting wire: %v", err)
	}
	if len(res.ChainDER) == 0 {
		t.Fatalf("no chain captured")
	}
	leaf := parsed(t, res.ChainDER)[0]
	if got := leaf.Issuer.Organization; len(got) == 0 || got[0] != "HostileTest" {
		t.Fatalf("fragmented handshake did not reach the forging path: issuer=%v", got)
	}
}

// TestInterceptorSniffTimeoutOnSlowloris pins ClientTimeout: a client
// that sends a few bytes and goes silent must not park the handler
// goroutine — HandleConn returns a timeout error within its budget.
func TestInterceptorSniffTimeoutOnSlowloris(t *testing.T) {
	_, authLeaf := authSetup(t, "loris.example.test")
	e := newEngine(t, Profile{ProductName: "HostileTest", IssuerOrg: "HostileTest", KeyBits: 1024})
	ic := NewInterceptor(e, func(string) (net.Conn, error) {
		up, down := net.Pipe()
		go tlswire.Respond(down, tlswire.ResponderConfig{Chain: tlswire.StaticChain(authLeaf.ChainDER)})
		return up, nil
	})
	ic.ClientTimeout = 100 * time.Millisecond

	client, proxySide := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	go func() { errc <- ic.HandleConn(proxySide) }()
	// Partial record header, then silence.
	client.Write([]byte{22, 3, 1})
	select {
	case err := <-errc:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("slowloris sniff ended with %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("HandleConn hung on a slowloris client")
	}
}

// TestSpliceUnwindsWhenClientHoldsHalfOpen pins the splice fix: once the
// upstream side finishes, a client that never closes its half must not
// keep the splice (and its goroutine) alive forever.
func TestSpliceUnwindsWhenClientHoldsHalfOpen(t *testing.T) {
	ic := &Interceptor{
		Dial: func(string) (net.Conn, error) {
			up, down := net.Pipe()
			go func() {
				// The upstream serves one reply and closes.
				buf := make([]byte, 16)
				down.Read(buf)
				down.Write([]byte("done"))
				down.Close()
			}()
			return up, nil
		},
	}
	client, proxySide := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- ic.splice(proxySide, "half.example.test", []byte("hi")) }()
	// Drain the upstream's reply but never close our half.
	buf := make([]byte, 16)
	client.Read(buf)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("splice hung after upstream finished (client half-open)")
	}
}

// TestInterceptorSurvivesHostileGrid runs every built-in scenario's
// client against the interceptor and requires each handler to terminate
// — capture, explicit error, or timeout; never a hang.
func TestInterceptorSurvivesHostileGrid(t *testing.T) {
	for _, sc := range faultnet.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			plan := faultnet.NewPlan(33, sc)
			_, dial := hostileWorld(t, "grid.example.test", plan)
			conn := dial()
			defer conn.Close()
			type outcome struct {
				res *tlswire.ProbeResult
				err error
			}
			oc := make(chan outcome, 1)
			go func() {
				res, err := tlswire.Probe(conn, tlswire.ProbeOptions{
					ServerName: "grid.example.test",
					Timeout:    500 * time.Millisecond,
				})
				oc <- outcome{res, err}
			}()
			select {
			case o := <-oc:
				switch sc.Name {
				case "clean", "fragment", "coalesce", "slow":
					// Stream-preserving faults: the probe must still capture.
					if o.err != nil {
						t.Fatalf("scenario %q should capture, got %v", sc.Name, o.err)
					}
				default:
					if o.err == nil {
						t.Logf("scenario %q still captured (fault landed outside the flight)", sc.Name)
					} else if strings.Contains(o.err.Error(), "panic") {
						t.Fatalf("scenario %q: %v", sc.Name, o.err)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("scenario %q hung", sc.Name)
			}
		})
	}
}
