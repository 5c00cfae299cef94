package policy

import (
	"bufio"
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
	// Fallback receives every non-policy connection and owns it from then
	// on: the conn replays all bytes already read and carries no
	// deadline. Required.
	Fallback func(net.Conn)
	// OnPolicy, when non-nil, is called once per connection dispatched as
	// a policy request, after it is served, with Serve's outcome — a
	// counting hook for telemetry (cmd/policyd's /metrics).
	OnPolicy func(error)
}

// sniffTimeout bounds the wait for a connection's first byte, and then
// the policy exchange that follows it.
const sniffTimeout = 5 * time.Second

// ServeConn dispatches one connection, the handler a resilient.Pool runs
// for each. It reports whether it handed conn to Fallback, which then
// owns it; otherwise the caller closes conn.
func (m *Mux) ServeConn(conn net.Conn) (handedOff bool) {
	_ = conn.SetReadDeadline(time.Now().Add(sniffTimeout))
	br := bufio.NewReaderSize(conn, 512)
	first, err := br.Peek(1)
	if err != nil {
		return false
	}
	if first[0] == '<' {
		err := Serve(&replayConn{Conn: conn, r: br}, m.Policy, sniffTimeout)
		if m.OnPolicy != nil {
			m.OnPolicy(err)
		}
		return false
	}
	_ = conn.SetDeadline(time.Time{}) // the new owner sets its own
	m.Fallback(&replayConn{Conn: conn, r: br})
	return true
}

// replayConn is a net.Conn whose reads come from a bufio.Reader that has
// already consumed bytes from the underlying connection.
type replayConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *replayConn) Read(p []byte) (int, error) { return c.r.Read(p) }
