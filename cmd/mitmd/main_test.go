package main

import (
	"bytes"
	"crypto/x509/pkix"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/certgen"
	"tlsfof/internal/tlswire"
)

// lockedBuffer is an io.Writer the command writes from its own goroutine
// while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startOrigin serves one CA-signed chain per host on a loopback
// partial-handshake TLS listener, selected by SNI.
func startOrigin(t *testing.T, hosts []string) string {
	t.Helper()
	pool := certgen.NewKeyPool(1, nil)
	ca, err := certgen.NewRootCA(certgen.CAConfig{
		Subject: pkix.Name{CommonName: "Origin Root CA"}, KeyBits: 512, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	chains := make(map[string][][]byte)
	for _, h := range hosts {
		leaf, err := ca.IssueLeaf(certgen.LeafConfig{CommonName: h, KeyBits: 512, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		chains[h] = leaf.ChainDER
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go tlswire.Server(ln, tlswire.ResponderConfig{Chain: func(sni string) ([][]byte, error) {
		if chain, ok := chains[sni]; ok {
			return chain, nil
		}
		return nil, fmt.Errorf("no chain for %q", sni)
	}}, nil)
	return ln.Addr().String()
}

// TestRunServesMetrics boots mitmd in-process in front of a loopback
// origin, drives connections over three SNI names, and scrapes /metrics:
// both encodings name the same metrics, the counters count what the
// connections did, and a stop signal drains to exit code 0.
func TestRunServesMetrics(t *testing.T) {
	const conns = 12
	hosts := []string{"a.example", "b.example", "c.example"}
	origin := startOrigin(t, hosts)

	var stdout, stderr lockedBuffer
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-listen", "127.0.0.1:0", "-upstream", origin, "-issuer", "Test Proxy",
			"-keybits", "512", "-stats", "127.0.0.1:0", "-prewarm"}, &stdout, &stderr, stop)
	}()
	// addrAfter waits for the banner line starting with prefix and
	// returns the address that follows it.
	addrAfter := func(prefix string) string {
		deadline := time.After(60 * time.Second)
		for {
			for _, line := range strings.Split(stdout.String(), "\n") {
				if rest, ok := strings.CutPrefix(line, prefix); ok {
					return strings.TrimSuffix(strings.Fields(rest)[0], "/metrics")
				}
			}
			select {
			case code := <-exit:
				t.Fatalf("mitmd exited %d before %q:\n%s%s", code, prefix, stdout.String(), stderr.String())
			case <-deadline:
				t.Fatalf("no %q line:\n%s%s", prefix, stdout.String(), stderr.String())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	statsURL := "http://" + addrAfter("mitmd: stats on http://") + "/metrics"
	proxy := addrAfter("mitmd: intercepting on ")

	for i := 0; i < conns; i++ {
		if _, err := tlswire.ProbeAddr(proxy, tlswire.ProbeOptions{ServerName: hosts[i%len(hosts)], Timeout: 10 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	scrape := func(query string) []byte {
		resp, err := http.Get(statsURL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// A connection counts as handled once its handler returns, which can
	// trail the probe's last read.
	var doc map[string]any
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := json.Unmarshal(scrape(""), &doc); err != nil {
			t.Fatal(err)
		}
		if doc["conns_handled_total"] == float64(conns) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var families []string
	for _, line := range strings.Split(string(scrape("?format=prometheus")), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
		}
	}
	keys := slices.Sorted(maps.Keys(doc))
	slices.Sort(families)
	if !slices.Equal(keys, families) {
		t.Fatalf("JSON keys %v\n!= Prometheus families %v", keys, families)
	}
	for name, want := range map[string]float64{
		"conns_accepted_total":     conns,
		"conns_handled_total":      conns,
		"conns_errored_total":      0,
		"conns_max":                1024,
		"forge_cache_forges_total": float64(len(hosts)),
		"forge_cache_hits_total":   conns - float64(len(hosts)),
		"origin_memo_loads_total":  float64(len(hosts)),
	} {
		if doc[name] != want {
			t.Errorf("%s = %v, want %v", name, doc[name], want)
		}
	}

	stop <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("mitmd exited %d after a clean drain:\n%s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("mitmd did not exit after the stop signal")
	}
	if want := fmt.Sprintf("served %d conns (%d ok, 0 errored)", conns, conns); !strings.Contains(stdout.String(), want) {
		t.Fatalf("exit summary lacks %q:\n%s", want, stdout.String())
	}
}
