package core

import (
	"bytes"
	"crypto/x509/pkix"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/geo"
	"tlsfof/internal/hostdb"
	"tlsfof/internal/policy"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/stats"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

var (
	pool       = certgen.NewKeyPool(2, nil)
	classifier = classify.NewClassifier()
)

func authChain(t testing.TB, host string) (*certgen.CA, *certgen.Leaf) {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "DigiCert High Assurance CA-3", Organization: []string{"DigiCert Inc"}},
		KeyBits: 1024, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 2048, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return ca, leaf
}

func TestObserveCleanChain(t *testing.T) {
	_, leaf := authChain(t, "clean.example")
	o, err := Observe("clean.example", leaf.ChainDER, leaf.ChainDER, classifier)
	if err != nil {
		t.Fatal(err)
	}
	if o.Proxied {
		t.Fatal("clean chain flagged as proxied")
	}
	if o.KeyBits != 2048 || o.OriginalKeyBits != 2048 {
		t.Fatalf("key bits = %d/%d", o.KeyBits, o.OriginalKeyBits)
	}
}

func TestObserveForgedChain(t *testing.T) {
	_, authLeaf := authChain(t, "victim.example")
	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "Bitdefender", IssuerOrg: "Bitdefender", KeyBits: 1024,
	}, proxyengine.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	up, err := x509util.ParseChain(authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	d, err := engine.Decide("victim.example", up, authLeaf.ChainDER)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Observe("victim.example", authLeaf.ChainDER, d.ChainDER, classifier)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Proxied {
		t.Fatal("forged chain not flagged")
	}
	if o.Category != classify.BusinessPersonalFirewall || o.ProductName != "Bitdefender" {
		t.Fatalf("classification = %v/%q", o.Category, o.ProductName)
	}
	if !o.WeakKey || o.KeyBits != 1024 {
		t.Fatalf("weak key not detected: %+v", o)
	}
	if o.UpgradedKey {
		t.Fatal("downgrade flagged as upgrade")
	}
}

func TestObserveErrors(t *testing.T) {
	_, leaf := authChain(t, "e.example")
	if _, err := Observe("e.example", nil, leaf.ChainDER, classifier); err == nil {
		t.Error("empty authoritative chain accepted")
	}
	if _, err := Observe("e.example", leaf.ChainDER, [][]byte{{0x31}}, classifier); err == nil {
		t.Error("corrupt observed chain accepted")
	}
}

type captureSink struct {
	mu sync.Mutex
	ms []Measurement
}

func (s *captureSink) Ingest(m Measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ms = append(s.ms, m)
}

func (s *captureSink) all() []Measurement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Measurement(nil), s.ms...)
}

func TestCollectorIngest(t *testing.T) {
	gdb := geo.NewDB()
	_, leaf := authChain(t, "tlsresearch.byu.edu")
	sink := &captureSink{}
	col := NewCollector(classifier, gdb, sink)
	col.SetAuthoritative("tlsresearch.byu.edu", leaf.ChainDER)

	r := stats.NewRNG(1)
	fr, _ := gdb.Index("FR")
	ip := gdb.RandomIPUint32(r, fr)
	m, err := col.Ingest(ip, "tlsresearch.byu.edu", leaf.ChainDER, "global")
	if err != nil {
		t.Fatal(err)
	}
	if m.Country != "FR" {
		t.Fatalf("country = %q", m.Country)
	}
	if m.Obs.Proxied {
		t.Fatal("clean report flagged")
	}
	if m.HostCategory != hostdb.Authors {
		t.Fatalf("host category = %v", m.HostCategory)
	}
	if len(sink.all()) != 1 {
		t.Fatal("sink did not receive the measurement")
	}
	// The stamp must compare the way its codec round trip does: no
	// monotonic reading (Time.String prints one as a trailing "m=").
	if m.Time.IsZero() || strings.Contains(m.Time.String(), " m=") {
		t.Fatalf("measurement time %v carries a monotonic reading", m.Time)
	}
}

func TestCollectorUnknownHost(t *testing.T) {
	col := NewCollector(classifier, nil, &captureSink{})
	_, leaf := authChain(t, "x.example")
	if _, err := col.Ingest(0, "unregistered.example", leaf.ChainDER, ""); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestCollectorHTTPIntake(t *testing.T) {
	_, leaf := authChain(t, "tlsresearch.byu.edu")
	sink := &captureSink{}
	col := NewCollector(classifier, nil, sink)
	col.SetAuthoritative("tlsresearch.byu.edu", leaf.ChainDER)
	col.Campaign = "global-2014"
	srv := httptest.NewServer(col)
	defer srv.Close()

	report := HTTPReporter(srv.URL, nil)
	if err := report("tlsresearch.byu.edu", x509util.EncodeChainPEM(leaf.ChainDER)); err != nil {
		t.Fatal(err)
	}
	ms := sink.all()
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Campaign != "global-2014" {
		t.Fatalf("campaign = %q", ms[0].Campaign)
	}
}

// refusingCommitter is a BatchCommitter whose commit always fails.
type refusingCommitter struct{ captureSink }

func (*refusingCommitter) Deliver([]Measurement) error { return errors.New("disk full") }

// TestCollectorHTTPCommitError: /report acks only what was committed — a
// failed Deliver answers 503, not 200.
func TestCollectorHTTPCommitError(t *testing.T) {
	_, leaf := authChain(t, "tlsresearch.byu.edu")
	sink := &refusingCommitter{}
	col := NewCollector(classifier, nil, sink)
	col.SetAuthoritative("tlsresearch.byu.edu", leaf.ChainDER)
	srv := httptest.NewServer(col)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"?host=tlsresearch.byu.edu", "application/x-pem-file",
		bytes.NewReader(x509util.EncodeChainPEM(leaf.ChainDER)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed commit status = %d, want 503", resp.StatusCode)
	}
	if n := len(sink.all()); n != 0 {
		t.Fatalf("a batch committer was fed %d measurements through Ingest", n)
	}
}

func TestCollectorHTTPRejectsBadInput(t *testing.T) {
	col := NewCollector(classifier, nil, &captureSink{})
	srv := httptest.NewServer(col)
	defer srv.Close()

	// GET refused.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	// Missing host parameter.
	resp, err = http.Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-host status = %d", resp.StatusCode)
	}
	// Garbage body.
	resp, err = http.Post(srv.URL+"?host=h.example", "text/plain", strings.NewReader("not pem"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status = %d", resp.StatusCode)
	}
}

// TestEndToEndWire is the full §3 deployment over real sockets:
// an authoritative TLS responder + policy server, a forging interceptor on
// path, the Tool probing through it, and the Collector receiving the
// report and flagging the proxy.
func TestEndToEndWire(t *testing.T) {
	const host = "tlsresearch.byu.edu"
	_, authLeaf := authChain(t, host)

	// Authoritative TLS server.
	tlsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tlsLn.Close()
	go tlswire.Server(tlsLn, tlswire.ResponderConfig{Chain: tlswire.StaticChain(authLeaf.ChainDER)}, nil)

	// Socket-policy server (the co-hosting requirement from §3.1).
	polLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer polLn.Close()
	go policy.ListenAndServe(polLn, policy.Permissive)

	// Interceptor between client and server, forging as Kaspersky.
	engine, err := proxyengine.New(proxyengine.Profile{
		ProductName: "Kaspersky Lab ZAO", IssuerOrg: "Kaspersky Lab ZAO", KeyBits: 1024,
	}, proxyengine.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ic := proxyengine.NewInterceptor(engine, func(string) (net.Conn, error) {
		return net.Dial("tcp", tlsLn.Addr().String())
	})
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	go ic.Serve(proxyLn, nil)

	// Collector with the authoritative chain registered.
	sink := &captureSink{}
	col := NewCollector(classifier, nil, sink)
	col.SetAuthoritative(host, authLeaf.ChainDER)
	reportSrv := httptest.NewServer(col)
	defer reportSrv.Close()

	// The Tool, dialing "through" the proxy.
	tool := &Tool{
		Hosts:      []hostdb.Host{{Name: host, Category: hostdb.Authors}},
		DialTLS:    func(string) (net.Conn, error) { return net.Dial("tcp", proxyLn.Addr().String()) },
		DialPolicy: func(string) (net.Conn, error) { return net.Dial("tcp", polLn.Addr().String()) },
		Report:     HTTPReporter(reportSrv.URL, nil),
		Timeout:    5 * time.Second,
	}
	results, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Completed {
		t.Fatalf("probe failed: %v", results[0].Err)
	}

	ms := sink.all()
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if !ms[0].Obs.Proxied {
		t.Fatal("interception not detected end to end")
	}
	if ms[0].Obs.ProductName != "Kaspersky Lab ZAO" {
		t.Fatalf("product = %q", ms[0].Obs.ProductName)
	}
	if ms[0].Obs.Category != classify.BusinessPersonalFirewall {
		t.Fatalf("category = %v", ms[0].Obs.Category)
	}
}

// TestEndToEndWireClean: same deployment without the interceptor — the
// collector must see a matching chain.
func TestEndToEndWireClean(t *testing.T) {
	const host = "tlsresearch.byu.edu"
	_, authLeaf := authChain(t, host)

	tlsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tlsLn.Close()
	go tlswire.Server(tlsLn, tlswire.ResponderConfig{Chain: tlswire.StaticChain(authLeaf.ChainDER)}, nil)

	sink := &captureSink{}
	col := NewCollector(classifier, nil, sink)
	col.SetAuthoritative(host, authLeaf.ChainDER)
	reportSrv := httptest.NewServer(col)
	defer reportSrv.Close()

	tool := &Tool{
		Hosts:   []hostdb.Host{{Name: host, Category: hostdb.Authors}},
		DialTLS: func(string) (net.Conn, error) { return net.Dial("tcp", tlsLn.Addr().String()) },
		Report:  HTTPReporter(reportSrv.URL, nil),
		Timeout: 5 * time.Second,
	}
	results, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Completed {
		t.Fatalf("probe failed: %v", results[0].Err)
	}
	if sink.all()[0].Obs.Proxied {
		t.Fatal("clean path flagged as proxied")
	}
}

func TestToolParallelHosts(t *testing.T) {
	hostNames := []string{"tlsresearch.byu.edu", "qq.com", "airdroid.com", "pornclipstv.com"}
	chains := make(map[string][][]byte)
	sink := &captureSink{}
	col := NewCollector(classifier, nil, sink)

	tlsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tlsLn.Close()
	for _, h := range hostNames {
		_, leaf := authChain(t, h)
		chains[h] = leaf.ChainDER
		col.SetAuthoritative(h, leaf.ChainDER)
	}
	go tlswire.Server(tlsLn, tlswire.ResponderConfig{
		Chain: func(sni string) ([][]byte, error) {
			if c, ok := chains[sni]; ok {
				return c, nil
			}
			return nil, nil
		},
	}, nil)

	reportSrv := httptest.NewServer(col)
	defer reportSrv.Close()

	var hosts []hostdb.Host
	for _, h := range hostNames {
		hh, ok := hostdb.HostByName(h)
		if !ok {
			t.Fatalf("host %s not in hostdb", h)
		}
		hosts = append(hosts, hh)
	}
	tool := &Tool{
		Hosts:   hosts,
		DialTLS: func(string) (net.Conn, error) { return net.Dial("tcp", tlsLn.Addr().String()) },
		Report:  HTTPReporter(reportSrv.URL, nil),
		Timeout: 5 * time.Second,
	}
	results, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Completed {
			t.Fatalf("host %s failed: %v", r.Host.Name, r.Err)
		}
	}
	ms := sink.all()
	if len(ms) != len(hostNames) {
		t.Fatalf("measurements = %d, want %d", len(ms), len(hostNames))
	}
	// Host categories must have been resolved from hostdb.
	categories := make(map[hostdb.Category]bool)
	for _, m := range ms {
		categories[m.HostCategory] = true
	}
	for _, want := range []hostdb.Category{hostdb.Authors, hostdb.Popular, hostdb.Business, hostdb.Pornographic} {
		if !categories[want] {
			t.Errorf("category %v missing from measurements", want)
		}
	}
}

func TestToolConfigValidation(t *testing.T) {
	if _, err := (&Tool{}).Run(); err == nil {
		t.Error("tool with no dialer accepted")
	}
	if _, err := (&Tool{DialTLS: func(string) (net.Conn, error) { return nil, nil }}).Run(); err == nil {
		t.Error("tool with no reporter accepted")
	}
	tool := &Tool{
		DialTLS: func(string) (net.Conn, error) { return nil, nil },
		Report:  func(string, []byte) error { return nil },
	}
	if _, err := tool.Run(); err == nil {
		t.Error("tool with no hosts accepted")
	}
}

func TestToolPolicyDenial(t *testing.T) {
	// A host whose policy does not permit 443 must not be probed.
	polLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer polLn.Close()
	restrictive := &policy.File{Rules: []policy.Rule{{Domain: "*", Ports: []policy.PortRange{{Lo: 80, Hi: 80}}}}}
	go policy.ListenAndServe(polLn, restrictive)

	dialed := false
	tool := &Tool{
		Hosts: []hostdb.Host{{Name: "locked.example"}},
		DialTLS: func(string) (net.Conn, error) {
			dialed = true
			return net.Dial("tcp", polLn.Addr().String())
		},
		DialPolicy: func(string) (net.Conn, error) { return net.Dial("tcp", polLn.Addr().String()) },
		Report:     func(string, []byte) error { return nil },
		Timeout:    5 * time.Second,
	}
	results, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Completed {
		t.Fatal("probe completed despite restrictive policy")
	}
	if dialed {
		t.Fatal("TLS port dialed despite policy denial")
	}
}
