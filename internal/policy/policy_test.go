package policy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tlsfof/internal/resilient"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	f := &File{Rules: []Rule{
		{Domain: "*", Ports: []PortRange{{443, 443}, {8000, 8100}}},
		{Domain: "*.example.com", AllPorts: true},
		{Domain: "exact.example.org", Ports: []PortRange{{80, 80}}},
	}}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != 0 {
		t.Fatal("marshalled policy not NUL-terminated")
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rules) != 3 {
		t.Fatalf("rules = %d", len(got.Rules))
	}
	if !got.Rules[0].Allows("anything.example", 443) {
		t.Error("rule 0 should allow 443 from anywhere")
	}
	if got.Rules[0].Allows("anything.example", 444) {
		t.Error("rule 0 should not allow 444")
	}
	if !got.Rules[0].Allows("x", 8050) {
		t.Error("rule 0 should allow the 8000-8100 range")
	}
	if !got.Rules[1].Allows("deep.sub.example.com", 9999) {
		t.Error("wildcard domain should match subdomain on any port")
	}
	if got.Rules[1].Allows("example.com", 80) {
		t.Error("*.example.com must not match the bare apex")
	}
	if !got.Rules[2].Allows("EXACT.example.org", 80) {
		t.Error("exact domain match should be case-insensitive")
	}
}

func TestPermissiveDetection(t *testing.T) {
	if !Permissive.PermissiveFor(443) {
		t.Error("canonical permissive policy not recognized")
	}
	if !PermissivePort443.PermissiveFor(443) {
		t.Error("port-443 policy not permissive for 443")
	}
	if PermissivePort443.PermissiveFor(80) {
		t.Error("port-443 policy should not be permissive for 80")
	}
	restricted := &File{Rules: []Rule{{Domain: "only.example.com", AllPorts: true}}}
	if restricted.PermissiveFor(443) {
		t.Error("domain-restricted policy reported permissive")
	}
}

func TestParseRealWorldPolicy(t *testing.T) {
	// The shape Adobe's docs show, with whitespace and header.
	raw := `<?xml version="1.0"?>
<cross-domain-policy>
   <allow-access-from domain="*" to-ports="443,843, 8080-8090" />
</cross-domain-policy>` + "\x00"
	f, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rules) != 1 {
		t.Fatalf("parsed %d rules, want 1", len(f.Rules))
	}
	r := f.Rules[0]
	if !r.Allows("client.example", 8085) || !r.Allows("x", 843) {
		t.Error("parsed ports wrong")
	}
	if r.Allows("x", 8091) {
		t.Error("8091 should be outside the range")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"not xml at all",
		`<cross-domain-policy><allow-access-from domain="*" to-ports="abc"/></cross-domain-policy>`,
		`<cross-domain-policy><allow-access-from domain="*" to-ports="90-20"/></cross-domain-policy>`,
		`<cross-domain-policy><allow-access-from domain="*" to-ports="0"/></cross-domain-policy>`,
		`<cross-domain-policy><allow-access-from domain="*" to-ports="99999"/></cross-domain-policy>`,
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestFetchServeOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ListenAndServe(ln, PermissivePort443)

	f, err := FetchAddr(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !f.PermissiveFor(443) {
		t.Error("fetched policy not permissive for 443")
	}
}

func TestServeRejectsWrongRequest(t *testing.T) {
	client, server := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer server.Close()
		errc <- Serve(server, Permissive, time.Second)
	}()
	client.Write([]byte("GET / HTTP/1.0\r\n\r\n\x00\x00\x00\x00\x00"))
	client.Close()
	if err := <-errc; err == nil {
		t.Fatal("HTTP request accepted by policy server")
	}
}

func TestMuxDispatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello web")
	})}
	fallbackLn := newChanListener(ln.Addr())
	go httpSrv.Serve(fallbackLn)
	defer httpSrv.Close()

	mux := &Mux{
		Policy:   Permissive,
		Fallback: func(c net.Conn) { fallbackLn.deliver(c) },
	}
	go resilient.NewPool(ln, 4, time.Minute).Serve(mux.ServeConn)

	// Policy request path.
	f, err := FetchAddr(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("policy via mux: %v", err)
	}
	if !f.PermissiveFor(443) {
		t.Error("policy via mux not permissive")
	}

	// HTTP path on the same port.
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("http via mux: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello web" {
		t.Fatalf("http body = %q", body)
	}
}

// chanListener adapts delivered conns into a net.Listener for http.Server.
type chanListener struct {
	ch   chan net.Conn
	addr net.Addr
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{ch: make(chan net.Conn, 16), addr: addr}
}

func (l *chanListener) deliver(c net.Conn) { l.ch <- c }

func (l *chanListener) Accept() (net.Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, io.EOF
	}
	return c, nil
}
func (l *chanListener) Close() error   { close(l.ch); return nil }
func (l *chanListener) Addr() net.Addr { return l.addr }

func TestReadUntilNULLimit(t *testing.T) {
	data := strings.Repeat("x", 100<<10) // no NUL, oversized
	_, err := readUntilNUL(strings.NewReader(data), 64<<10)
	if err == nil {
		t.Fatal("unbounded response accepted")
	}
}

func TestReadUntilNULEOFWithoutTerminator(t *testing.T) {
	// Some real servers close without sending NUL; content should still
	// be returned.
	got, err := readUntilNUL(strings.NewReader("<cross-domain-policy/>"), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "<cross-domain-policy/>" {
		t.Fatalf("got %q", got)
	}
}

func TestDomainMatching(t *testing.T) {
	cases := []struct {
		pattern, domain string
		want            bool
	}{
		{"*", "anything", true},
		{"*.byu.edu", "tlsresearch.byu.edu", true},
		{"*.byu.edu", "byu.edu", false},
		{"*.byu.edu", "evil.com", false},
		{"qq.com", "qq.com", true},
		{"qq.com", "www.qq.com", false},
	}
	for _, c := range cases {
		if got := domainMatches(c.pattern, c.domain); got != c.want {
			t.Errorf("domainMatches(%q, %q) = %v, want %v", c.pattern, c.domain, got, c.want)
		}
	}
}

// Property: marshal/parse round-trips arbitrary valid single-port rules.
func TestQuickPortRoundTrip(t *testing.T) {
	f := func(rawPort uint16, wildcard bool) bool {
		port := int(rawPort)
		if port == 0 {
			port = 1
		}
		var file *File
		if wildcard {
			file = &File{Rules: []Rule{{Domain: "*", AllPorts: true}}}
		} else {
			file = &File{Rules: []Rule{{Domain: "*", Ports: []PortRange{{port, port}}}}}
		}
		data, err := file.Marshal()
		if err != nil {
			return false
		}
		got, err := Parse(data)
		if err != nil {
			return false
		}
		return len(got.Rules) == 1 && got.Rules[0].Allows("any.example", port) &&
			got.PermissiveFor(port)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse never panics on arbitrary bytes.
func TestQuickParseRobust(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Parse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolicyExchange(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go ListenAndServe(ln, Permissive)
	addr := ln.Addr().String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FetchAddr(addr, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
