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
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"tlsfof/internal/policy"
	"tlsfof/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", ":8843", "listen address")
		withHTTP    = flag.Bool("http", false, "co-host a static HTTP responder on the same port")
		ports       = flag.String("ports", "", "comma-separated ports the policy permits (default: all)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (JSON and Prometheus text) on this address")
	)
	flag.Parse()

	file := policy.Permissive
	if *ports != "" {
		var ranges []policy.PortRange
		for _, p := range strings.Split(*ports, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				fmt.Fprintf(os.Stderr, "policyd: bad port %q\n", p)
				os.Exit(1)
			}
			ranges = append(ranges, policy.PortRange{Lo: v, Hi: v})
		}
		file = &policy.File{Rules: []policy.Rule{{Domain: "*", Ports: ranges}}}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "policyd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("policyd: serving socket policy on %s (http=%v)\n", ln.Addr(), *withHTTP)

	reg := telemetry.NewRegistry()
	connsTotal := reg.Counter("policy_conns_total", "connections accepted")
	policyServed := reg.Counter("policy_served_total", "policy requests served")
	policyErrors := reg.Counter("policy_errors_total", "policy connections that failed (bad request, write error)")
	httpConnsTotal := reg.Counter("policy_http_conns_total", "connections dispatched to the co-hosted HTTP responder")
	start := time.Now()
	reg.GaugeFunc("uptime_seconds", "seconds since policyd booted", func() float64 { return time.Since(start).Seconds() })
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler(reg))
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "policyd: metrics listener: %v\n", err)
			}
		}()
		fmt.Printf("policyd: metrics on %s/metrics\n", *metricsAddr)
	}

	if !*withHTTP {
		// Own accept loop (rather than policy.ListenAndServe) so every
		// outcome lands on a counter.
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
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
	httpConns := make(chan net.Conn, 16)
	mux := &policy.Mux{
		Policy: file,
		Fallback: func(c net.Conn) {
			httpConnsTotal.Inc()
			httpConns <- c
		},
		OnPolicy: func() { policyServed.Inc() },
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "tlsfof policyd: socket policy co-hosted on this port")
	})}
	go srv.Serve(chanListener{ch: httpConns, addr: ln.Addr()})
	mux.Serve(countingListener{Listener: ln, n: connsTotal})
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

type chanListener struct {
	ch   chan net.Conn
	addr net.Addr
}

func (l chanListener) Accept() (net.Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}
func (l chanListener) Close() error   { return nil }
func (l chanListener) Addr() net.Addr { return l.addr }
