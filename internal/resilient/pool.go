package resilient

import (
	"log/slog"
	"net"
	"sync"
	"time"
)

// The bounds of a server no operator tuned: mitmd's -max-conns and
// -conn-timeout defaults.
const (
	DefaultMaxConns    = 1024
	DefaultConnTimeout = 30 * time.Second
)

// Pool is the accept loop every server in the repo runs, on one
// listener: at most max connections in handlers, a slot taken before each
// Accept (so a full pool leaves clients in the listener's backlog), a
// deadline per connection and a bounded drain. It counts nothing; a
// server counts in its handler.
type Pool struct {
	ln      net.Listener
	timeout time.Duration
	slots   chan struct{} // one token per connection in a handler
	quit    chan struct{} // closed by Close
	once    sync.Once
}

// NewPool returns a pool of max (at least 1) slots on ln whose
// connections expire timeout after their accept (never for 0).
func NewPool(ln net.Listener, max int, timeout time.Duration) *Pool {
	if max < 1 {
		panic("resilient: NewPool needs at least one slot")
	}
	return &Pool{ln: ln, timeout: timeout, slots: make(chan struct{}, max), quit: make(chan struct{})}
}

// Serve runs a pool of the default bounds on ln, passing each error
// handle returns to onErr when it is non-nil.
func Serve(ln net.Listener, handle func(net.Conn) error, onErr func(error)) {
	NewPool(ln, DefaultMaxConns, DefaultConnTimeout).Serve(func(conn net.Conn) bool {
		if err := handle(conn); err != nil && onErr != nil {
			onErr(err)
		}
		return false
	})
}

// Serve accepts until the listener closes or Close is called, runs
// handle on a goroutine per connection and then closes the connection,
// unless handle handed it to another owner (policy.Mux to net/http).
// With every slot held Serve waits outside Accept: closing the listener
// ends it only once a handler returns, Close at once. An Accept error
// net/http.Server would retry (a temporary net.Error: EMFILE, ENFILE,
// ECONNABORTED) is retried the same way, backing off from 5 ms and
// doubling to 1 s, with one Warn per episode; Close ends the backoff too.
func (p *Pool) Serve(handle func(net.Conn) (handedOff bool)) {
	var backoff time.Duration
	for {
		select {
		case p.slots <- struct{}{}:
		case <-p.quit:
			return
		}
		conn, err := p.ln.Accept()
		if err != nil {
			<-p.slots
			if ne, ok := err.(net.Error); !ok || !ne.Temporary() {
				return
			}
			if backoff == 0 {
				slog.Warn("accept failing, retrying", "addr", p.ln.Addr(), "err", err)
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
				continue
			case <-p.quit:
				return
			}
		}
		backoff = 0
		go func() {
			defer func() { <-p.slots }()
			if p.timeout > 0 {
				_ = conn.SetDeadline(time.Now().Add(p.timeout)) // a conn without deadlines runs unbounded
			}
			if !handle(conn) {
				conn.Close()
			}
		}()
	}
}

// Close closes the listener and ends Serve, even while it waits for a
// slot. Handlers in flight run on; Drain waits for them.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.quit)
		p.ln.Close()
	})
}

// Drain waits up to timeout for every handler to return, and reports
// whether they all did. It takes every slot, handing each back when it
// returns, so call it after Serve returns.
func (p *Pool) Drain(timeout time.Duration) bool {
	deadline := time.After(timeout)
	for range cap(p.slots) {
		select {
		case p.slots <- struct{}{}:
			defer func() { <-p.slots }()
		case <-deadline:
			return false
		}
	}
	return true
}
