package telemetry

import (
	"net"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestSideDoorServesBoundAddrs: Open rewrites ":0" to the port bound and
// serves /metrics, /trace and /debug/pprof/ there.
func TestSideDoorServesBoundAddrs(t *testing.T) {
	reg := NewRegistry()
	d := &SideDoor{Metrics: "127.0.0.1:0", Registry: reg, Tracer: NewTracer(reg, 0), Pprof: "127.0.0.1:0"}
	if err := d.Open(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, url := range []string{"http://" + d.Metrics + "/metrics", "http://" + d.Metrics + "/trace", "http://" + d.Pprof + "/debug/pprof/cmdline"} {
		if code := get(t, url); code != http.StatusOK {
			t.Errorf("GET %s: %d", url, code)
		}
	}
	if code := get(t, "http://"+d.Pprof+"/metrics"); code != http.StatusNotFound {
		t.Errorf("pprof listener serves /metrics: %d", code)
	}
}

// TestSideDoorBindErrorClosesAll: a taken pprof port fails Open, names
// the listener, and leaves the metrics listener it had bound closed.
func TestSideDoorBindErrorClosesAll(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	d := &SideDoor{Metrics: "127.0.0.1:0", Registry: NewRegistry(), Pprof: taken.Addr().String()}
	err = d.Open()
	if err == nil || !strings.Contains(err.Error(), "pprof listener") {
		t.Fatalf("Open = %v, want a pprof listener error", err)
	}
	if c, err := net.Dial("tcp", d.Metrics); err == nil {
		c.Close()
		t.Fatalf("metrics listener %s still open after the failed Open", d.Metrics)
	}
}
