package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/policy"
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

// daemon is one in-process policyd run.
type daemon struct {
	t              *testing.T
	stdout, stderr lockedBuffer
	stop           chan os.Signal
	exit           chan int
}

func start(t *testing.T, args ...string) *daemon {
	d := &daemon{t: t, stop: make(chan os.Signal), exit: make(chan int, 1)}
	args = append([]string{"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, args...)
	go func() { d.exit <- run(args, &d.stdout, &d.stderr, d.stop) }()
	return d
}

// addrAfter waits for the banner line starting with prefix and returns
// the address that follows it.
func (d *daemon) addrAfter(prefix string) string {
	d.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		for _, line := range strings.Split(d.stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSuffix(strings.Fields(rest)[0], "/metrics")
			}
		}
		select {
		case code := <-d.exit:
			d.t.Fatalf("policyd exited %d before %q:\n%s%s", code, prefix, d.stdout.String(), d.stderr.String())
		case <-deadline:
			d.t.Fatalf("no %q line:\n%s%s", prefix, d.stdout.String(), d.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// awaitCounter polls /metrics until name reaches want, and fails if it
// does not within a few seconds: a counter can trail the client's last
// read by the handler's return.
func (d *daemon) awaitCounter(metricsURL, name string, want float64) {
	d.t.Helper()
	var doc map[string]any
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(metricsURL)
		if err != nil {
			d.t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			d.t.Fatal(err)
		}
		if doc[name] == want {
			return
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("%s = %v, want %v", name, doc[name], want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shutdown closes stop and expects exit code 0.
func (d *daemon) shutdown() {
	d.t.Helper()
	close(d.stop)
	select {
	case code := <-d.exit:
		if code != 0 {
			d.t.Fatalf("policyd exited %d:\n%s", code, d.stderr.String())
		}
	case <-time.After(10 * time.Second):
		d.t.Fatal("policyd did not exit after stop closed")
	}
}

// TestRunServesPolicy boots policyd in-process in both modes: policy-only
// answers a <policy-file-request/>, the -http mux also answers a GET on
// the same port, each counted on /metrics, and closing stop closes the
// listener and exits 0.
func TestRunServesPolicy(t *testing.T) {
	t.Run("policy-only", func(t *testing.T) {
		d := start(t)
		metricsURL := "http://" + d.addrAfter("policyd: metrics on http://") + "/metrics"
		addr := d.addrAfter("policyd: serving socket policy on ")
		f, err := policy.FetchAddr(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !f.PermissiveFor(443) {
			t.Error("served policy does not permit 443")
		}
		d.awaitCounter(metricsURL, "policy_served_total", 1)
		d.shutdown()
		if _, err := policy.FetchAddr(addr, time.Second); err == nil {
			t.Error("listener still answers after stop")
		}
	})
	t.Run("http", func(t *testing.T) {
		d := start(t, "-http")
		metricsURL := "http://" + d.addrAfter("policyd: metrics on http://") + "/metrics"
		addr := d.addrAfter("policyd: serving socket policy on ")
		if _, err := policy.FetchAddr(addr, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		d.awaitCounter(metricsURL, "policy_served_total", 1)
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := "tlsfof policyd: socket policy co-hosted on this port\n"; string(body) != want {
			t.Errorf("GET / = %q, want %q", body, want)
		}
		d.awaitCounter(metricsURL, "policy_http_conns_total", 1)
		d.shutdown()
	})
}
