package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, and nothing else does
)

// SideDoor is what a long-running binary serves beside its own service.
// Every field may be left zero.
type SideDoor struct {
	Ring     *EventRing // default slog handler: every event, warnings and above also to Stderr
	Stderr   io.Writer
	Metrics  string // address serving Registry as /metrics, and Tracer as /trace when set
	Registry *Registry
	Tracer   *Tracer
	Pprof    string // address serving net/http/pprof under /debug/pprof/

	lns []net.Listener
}

// Open binds Metrics and Pprof, rewrites each to the address bound (so
// ":0" reads as the port chosen), serves them and installs Ring. A bind
// error closes what Open bound and installs nothing.
func (d *SideDoor) Open() error {
	metrics := http.NewServeMux()
	metrics.Handle("/metrics", Handler(d.Registry))
	if d.Tracer != nil {
		metrics.Handle("/trace", d.Tracer.Handler())
	}
	for _, l := range []struct {
		name string
		addr *string
		h    http.Handler
	}{{"metrics", &d.Metrics, metrics}, {"pprof", &d.Pprof, http.DefaultServeMux}} {
		if *l.addr == "" {
			continue
		}
		ln, err := net.Listen("tcp", *l.addr)
		if err != nil {
			d.Close()
			return fmt.Errorf("%s listener: %w", l.name, err)
		}
		d.lns = append(d.lns, ln)
		*l.addr = ln.Addr().String()
		go http.Serve(ln, l.h)
	}
	if d.Ring != nil {
		primary := slog.NewTextHandler(d.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})
		slog.SetDefault(slog.New(teeHandler{primary: primary, ring: d.Ring}))
	}
	return nil
}

// Close closes the listeners Open bound.
func (d *SideDoor) Close() {
	for _, ln := range d.lns {
		ln.Close()
	}
}
