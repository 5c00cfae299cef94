// Command policyd serves a Flash socket policy file, optionally co-hosted
// with a static HTTP responder on the same port — the captive-portal
// workaround the paper deployed on port 80 (§3.1).
//
// Usage:
//
//	policyd -listen=:8843                 # policy protocol only
//	policyd -listen=:8080 -http           # policy + HTTP mux on one port
//	policyd -listen=:8843 -ports=443,8443 # restrict permitted ports
//	policyd -listen=:8843 -metrics-addr=:9093 # expose /metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tlsfof/internal/policy"
	"tlsfof/internal/resilient"
	"tlsfof/internal/telemetry"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the whole command: it serves until stop delivers a signal (or
// is closed), then closes the listener and returns the exit code.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("policyd", flag.ExitOnError)
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "policyd: "+format+"\n", args...)
		return 1
	}
	var (
		listen      = fs.String("listen", ":8843", "listen address")
		withHTTP    = fs.Bool("http", false, "co-host a static HTTP responder on the same port")
		ports       = fs.String("ports", "", "comma-separated ports the policy permits (default: all)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (JSON and Prometheus text) on this address")
	)
	fs.Parse(args)

	file := policy.Permissive
	if *ports != "" {
		var ranges []policy.PortRange
		for _, p := range strings.Split(*ports, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 1 || v > 65535 {
				return fatalf("bad port %q (want 1-65535)", p)
			}
			ranges = append(ranges, policy.PortRange{Lo: v, Hi: v})
		}
		file = &policy.File{Rules: []policy.Rule{{Domain: "*", Ports: ranges}}}
	}

	reg := telemetry.NewRegistry()
	connsTotal := reg.Counter("policy_conns_total", "connections accepted")
	policyServed := reg.Counter("policy_served_total", "policy requests served")
	policyErrors := reg.Counter("policy_errors_total", "policy connections that failed (bad request, write error)")
	httpConnsTotal := reg.Counter("policy_http_conns_total", "connections dispatched to the co-hosted HTTP responder")
	start := time.Now()
	reg.GaugeFunc("uptime_seconds", "seconds since policyd booted", func() float64 { return time.Since(start).Seconds() })
	side := &telemetry.SideDoor{Metrics: *metricsAddr, Registry: reg}
	if err := side.Open(); err != nil {
		return fatalf("%v", err)
	}
	defer side.Close()
	if side.Metrics != "" {
		fmt.Fprintf(stdout, "policyd: metrics on http://%s/metrics\n", side.Metrics)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fatalf("%v", err)
	}
	fmt.Fprintf(stdout, "policyd: serving socket policy on %s (http=%v)\n", ln.Addr(), *withHTTP)
	conns := resilient.NewPool(ln, resilient.DefaultMaxConns, resilient.DefaultConnTimeout)
	go func() {
		<-stop
		conns.Close()
	}()

	// Both modes count a policy request by its outcome.
	count := func(err error) {
		if err != nil {
			policyErrors.Inc()
			return
		}
		policyServed.Inc()
	}
	serve := func(conn net.Conn) bool {
		count(policy.Serve(conn, file, 10*time.Second))
		return false
	}
	if *withHTTP {
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "tlsfof policyd: socket policy co-hosted on this port")
		})}
		defer srv.Close()
		mux := &policy.Mux{
			Policy: file,
			Fallback: func(c net.Conn) {
				httpConnsTotal.Inc()
				l := &connListener{conn: c}
				srv.Serve(l)
				if !l.taken {
					c.Close() // srv is already closed
				}
			},
			OnPolicy: count,
		}
		serve = mux.ServeConn
	}
	conns.Serve(func(conn net.Conn) bool {
		connsTotal.Inc()
		return serve(conn)
	})
	return 0
}

// connListener hands net/http one connection the policy mux sniffed as
// HTTP: the first Accept returns it, the second ends that Serve call.
type connListener struct {
	conn  net.Conn
	taken bool
}

func (l *connListener) Accept() (net.Conn, error) {
	if l.taken {
		return nil, net.ErrClosed
	}
	l.taken = true
	return l.conn, nil
}

func (l *connListener) Close() error   { return nil }
func (l *connListener) Addr() net.Addr { return l.conn.LocalAddr() }
