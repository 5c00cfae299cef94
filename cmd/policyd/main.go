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
	"sync"
	"syscall"
	"time"

	"tlsfof/internal/policy"
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
			if err != nil {
				return fatalf("bad port %q", p)
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
	if *metricsAddr != "" {
		metricsLn, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fatalf("metrics listener: %v", err)
		}
		defer metricsLn.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler(reg))
		go http.Serve(metricsLn, mux)
		fmt.Fprintf(stdout, "policyd: metrics on http://%s/metrics\n", metricsLn.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fatalf("%v", err)
	}
	fmt.Fprintf(stdout, "policyd: serving socket policy on %s (http=%v)\n", ln.Addr(), *withHTTP)
	go func() {
		<-stop
		ln.Close()
	}()

	if !*withHTTP {
		// Own accept loop (rather than policy.ListenAndServe) so every
		// outcome lands on a counter.
		for {
			conn, err := ln.Accept()
			if err != nil {
				return 0
			}
			connsTotal.Inc()
			go func() {
				defer conn.Close()
				if err := policy.Serve(conn, file, 10*time.Second); err != nil {
					policyErrors.Inc()
					return
				}
				policyServed.Inc()
			}()
		}
	}
	httpLn := &chanListener{ch: make(chan net.Conn), done: make(chan struct{}), addr: ln.Addr()}
	mux := &policy.Mux{
		Policy: file,
		Fallback: func(c net.Conn) {
			httpConnsTotal.Inc()
			httpLn.deliver(c)
		},
		OnPolicy: func() { policyServed.Inc() },
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "tlsfof policyd: socket policy co-hosted on this port")
	})}
	go srv.Serve(httpLn)
	mux.Serve(countingListener{Listener: ln, n: connsTotal})
	srv.Close()
	return 0
}

// countingListener bumps a counter per accepted connection.
type countingListener struct {
	net.Listener
	n *telemetry.Counter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Inc()
	}
	return c, err
}

// chanListener hands the HTTP server the connections the policy mux
// sniffed as HTTP. Close ends Accept and refuses later deliveries.
type chanListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
	addr net.Addr
}

func (l *chanListener) deliver(c net.Conn) {
	select {
	case l.ch <- c:
	case <-l.done:
		c.Close()
	}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }
