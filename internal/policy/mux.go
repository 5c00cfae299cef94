package policy

import (
	"bufio"
	"bytes"
	"net"
	"time"
)

// Mux serves both the socket policy protocol and another protocol (HTTP in
// the paper's deployment) on a single listener. The paper served its policy
// file on port 80 alongside the web server because "captive portals ...
// often block traffic targeting ports other than those used by HTTP and
// HTTPS" (§3.1).
//
// Dispatch sniffs the first byte: a '<' means a Flash policy request (no
// HTTP method starts with '<'); anything else is handed to Fallback with
// the sniffed bytes replayed.
type Mux struct {
	// Policy is the file served to policy requests.
	Policy *File
	// Fallback receives every non-policy connection. The conn replays all
	// bytes already read. Required.
	Fallback func(net.Conn)
	// OnPolicy, when non-nil, is called once per connection dispatched as
	// a policy request, before it is served — a counting hook for
	// telemetry (cmd/policyd's /metrics).
	OnPolicy func()
	// SniffTimeout bounds the wait for the first byte (default 5s).
	SniffTimeout time.Duration
}

// Serve accepts from ln until it closes.
func (m *Mux) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go m.handle(conn)
	}
}

func (m *Mux) handle(conn net.Conn) {
	timeout := m.SniffTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	br := bufio.NewReaderSize(conn, 512)
	first, err := br.Peek(1)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	if first[0] == '<' {
		defer conn.Close()
		if m.OnPolicy != nil {
			m.OnPolicy()
		}
		_ = Serve(&replayConn{Conn: conn, r: br}, m.Policy, timeout)
		return
	}
	if m.Fallback != nil {
		m.Fallback(&replayConn{Conn: conn, r: br})
		return
	}
	conn.Close()
}

// replayConn is a net.Conn whose reads come from a bufio.Reader that has
// already consumed bytes from the underlying connection.
type replayConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *replayConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// SniffIsPolicyRequest reports whether data looks like the start of a Flash
// policy request; used by tests and the captive-portal model.
func SniffIsPolicyRequest(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	return bytes.HasPrefix(Request, data) || bytes.HasPrefix(data, Request)
}
