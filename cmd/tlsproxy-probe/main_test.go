package main

import (
	"bytes"
	"crypto/x509/pkix"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tlsfof/internal/certgen"
	"tlsfof/internal/classify"
	"tlsfof/internal/core"
	"tlsfof/internal/ingest"
	"tlsfof/internal/tlswire"
	"tlsfof/internal/x509util"
)

// mintChain issues a chain for host under a fresh root whose subject
// carries org, the way the paper's forging products name themselves.
func mintChain(t *testing.T, org, host string) [][]byte {
	t.Helper()
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: org + " Root", Organization: []string{org}}, KeyBits: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: host, KeyBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	return leaf.ChainDER
}

// startResponder serves chain to every SNI on a loopback partial-handshake
// TLS listener and returns its address.
func startResponder(t *testing.T, chain [][]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go tlswire.Server(ln, tlswire.ResponderConfig{Chain: tlswire.StaticChain(chain)}, nil)
	return ln.Addr().String()
}

// TestRunSingleDetectsProxy: with -reference, a path that presents the
// authoritative chain exits 0 and one that presents a forged chain exits
// 2 with the claimed issuer in the verdict.
func TestRunSingleDetectsProxy(t *testing.T) {
	const host = "probe.example"
	auth := mintChain(t, "DigiCert Inc", host)
	ref := filepath.Join(t.TempDir(), "ref.pem")
	if err := os.WriteFile(ref, x509util.EncodeChainPEM(auth), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		chain [][]byte
		code  int
		want  string
	}{
		{"authoritative", auth, 0, "verdict: chains match"},
		{"forged", mintChain(t, "Bitdefender", host), 2, `claimed issuer: O="Bitdefender"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-addr", startResponder(t, tc.chain), "-sni", host, "-reference", ref}, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\n%s%s", code, tc.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, stdout.String())
			}
		})
	}
}

// TestRunFleetUploads: two workers of three probes each upload every
// captured chain to an /ingest/batch endpoint, and the run exits 0.
func TestRunFleetUploads(t *testing.T) {
	hosts := []string{"a.example", "b.example"}
	chain := mintChain(t, "Origin", "a.example")
	origin := startResponder(t, chain)

	var mu sync.Mutex
	got := map[string]int{}
	col := core.NewCollector(classify.NewClassifier(), nil, core.SinkFunc(func(m core.Measurement) {
		mu.Lock()
		defer mu.Unlock()
		got[m.Host]++
	}))
	for _, h := range hosts {
		col.SetAuthoritative(h, chain)
	}
	mux := http.NewServeMux()
	mux.Handle("/ingest/batch", ingest.BatchHandler(col))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", origin, "-fleet", "2", "-count", "3",
		"-hosts", strings.Join(hosts, ","), "-report", srv.URL}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != "map[a.example:3 b.example:3]" {
		t.Fatalf("reports per host %v, want 3 each", got)
	}
	if want := "fleet: uploaded 6 reports"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("stdout lacks %q:\n%s", want, stdout.String())
	}
}

// TestRunRejectsNegativeCount: -fleet with -count -1 would run no probe
// and exit 0; it fails at flag parse instead.
func TestRunRejectsNegativeCount(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", "127.0.0.1:1", "-fleet", "2", "-count", "-1"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "-count must not be negative") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("ran the fleet:\n%s", stdout.String())
	}
}
