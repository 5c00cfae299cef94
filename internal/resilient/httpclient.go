package resilient

import (
	"context"
	"net"
	"net/http"
	"time"
)

// DialFunc is the context dial signature http.Transport uses.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// SplitTimeoutClient returns an HTTP client with a connect deadline and
// a per-read idle deadline instead of http.Client.Timeout's blanket
// total-transfer cap. A blanket timeout bounds the WHOLE response body:
// a large replica catch-up over a throttled-but-moving link dies
// spuriously at the cap, while a stalled link is indistinguishable from
// a slow one until the cap. Split deadlines invert that: any single
// read that makes no progress for idle fails, but a transfer that keeps
// moving may take as long as it needs.
//
// dial overrides the underlying dial (the faultnet chaos mount point);
// nil uses a net.Dialer bounded by connect. Keep-alives stay on — a
// pooled conn carries its idle deadline with it.
func SplitTimeoutClient(connect, idle time.Duration, dial DialFunc) *http.Client {
	if connect <= 0 {
		connect = 5 * time.Second
	}
	if idle <= 0 {
		idle = 30 * time.Second
	}
	base := dial
	if base == nil {
		d := &net.Dialer{Timeout: connect}
		base = d.DialContext
	}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			// An injected dial may ignore dialer timeouts; bound it here so
			// a black-holed connect fails at connect either way.
			dctx, cancel := context.WithTimeout(ctx, connect)
			defer cancel()
			conn, err := base(dctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &idleConn{Conn: conn, idle: idle}, nil
		},
		// Header wait is one logical read; the idle deadline already
		// bounds it at the conn layer, but the transport-level cap makes
		// the failure mode legible (a timeout, not a reset).
		ResponseHeaderTimeout: idle,
	}
	return &http.Client{Transport: tr}
}

// idleConn re-arms a read deadline before every Read and a write
// deadline before every Write, turning the conn's absolute deadlines
// into per-operation stall detectors.
type idleConn struct {
	net.Conn
	idle time.Duration
}

func (c *idleConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *idleConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}
