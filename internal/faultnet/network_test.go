package faultnet

import (
	"crypto/x509/pkix"
	"net"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

var networkPool = certgen.NewKeyPool(2, nil)

func authLeaf(t testing.TB, host string) *certgen.Leaf {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Pipe Root", Organization: []string{"Pipe CA"}},
		KeyBits: 1024, Pool: networkPool, KeyName: "pipe-auth",
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 1024, Pool: networkPool})
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// origin returns a network whose host answers with leaf's chain.
func origin(host string, leaf *certgen.Leaf) *Network {
	n := NewNetwork()
	n.Listen(host, func(c net.Conn) {
		defer c.Close()
		tlswire.Respond(c, tlswire.ResponderConfig{Chain: tlswire.StaticChain(leaf.ChainDER)})
	})
	return n
}

func TestNetworkDialUnknownHostRefused(t *testing.T) {
	if _, err := NewNetwork().Dial("ghost.example"); err == nil {
		t.Fatal("dial to unregistered host succeeded")
	}
}

func TestTLSOverNetwork(t *testing.T) {
	const host = "sim.example"
	leaf := authLeaf(t, host)
	conn, err := origin(host, leaf).Dial(host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := tlswire.Probe(conn, tlswire.ProbeOptions{ServerName: host, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !x509util.ChainsEqual(res.ChainDER, leaf.ChainDER) {
		t.Fatal("chain corrupted across the simulated network")
	}
}

// TestInterceptedView runs the paper's client-side pipeline — partial
// handshake, report — over the simulated network, once directly, once
// from behind an interception tap, and once behind the tap with a
// fragmenting last mile, and checks the collector's verdicts.
func TestInterceptedView(t *testing.T) {
	const host = "tlsresearch.byu.edu"
	leaf := authLeaf(t, host)
	n := origin(host, leaf)

	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "PSafe Tecnologia S.A.", IssuerOrg: "PSafe Tecnologia S.A.",
	}, proxyengine.Options{Pool: networkPool})
	if err != nil {
		t.Fatal(err)
	}

	var verdicts []core.Measurement
	collector := core.NewCollector(classify.NewClassifier(), geo.NewDB(),
		core.SinkFunc(func(m core.Measurement) { verdicts = append(verdicts, m) }))
	collector.SetAuthoritative(host, leaf.ChainDER)

	runTool := func(dial func(string) (net.Conn, error)) core.HostResult {
		tool := &core.Tool{
			Hosts:   []hostdb.Host{{Name: host, Category: hostdb.Authors}},
			DialTLS: dial,
			Report: func(h string, chainPEM []byte) error {
				chain, err := x509util.DecodeChainPEM(chainPEM)
				if err != nil {
					return err
				}
				_, err = collector.Ingest(0x01020304, h, chain, "pipe")
				return err
			},
			Timeout: 5 * time.Second,
		}
		results, err := tool.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}

	// Direct path: clean verdict.
	if r := runTool(n.Dial); !r.Completed {
		t.Fatalf("direct run failed: %v", r.Err)
	}
	// Intercepted path: the tap hands each TLS connection to the proxy.
	ic := proxyengine.NewInterceptor(engine, n.Dial)
	tapped := Intercepted(func(clientConn net.Conn) {
		defer clientConn.Close()
		ic.HandleConn(clientConn)
	})
	if r := runTool(tapped); !r.Completed {
		t.Fatalf("intercepted run failed: %v", r.Err)
	}
	// A hostile last mile composes in front of the tap.
	frag, _ := ScenarioByName("fragment")
	if r := runTool(NewPlan(7, frag).Dialer(tapped)); !r.Completed {
		t.Fatalf("intercepted run over a fragmenting wire failed: %v", r.Err)
	}

	if len(verdicts) != 3 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	if verdicts[0].Obs.Proxied {
		t.Fatal("direct path flagged as proxied")
	}
	for _, v := range verdicts[1:] {
		if !v.Obs.Proxied || v.Obs.ProductName != "PSafe Tecnologia S.A." {
			t.Fatalf("intercepted path: proxied %v, product %q", v.Obs.Proxied, v.Obs.ProductName)
		}
	}
}

func TestNetworkManyClientsConcurrently(t *testing.T) {
	const host = "busy.example"
	n := origin(host, authLeaf(t, host))
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		go func() {
			conn, err := n.Dial(host)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			_, err = tlswire.Probe(conn, tlswire.ProbeOptions{ServerName: host, Timeout: 10 * time.Second})
			errs <- err
		}()
	}
	for i := 0; i < 64; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
