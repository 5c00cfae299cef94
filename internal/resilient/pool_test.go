package resilient

import (
	"bytes"
	"io"
	"log"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// blockingPool serves a fresh loopback listener through a pool of max
// slots whose handlers report on started and then wait for release.
// served is closed when Serve returns.
func blockingPool(t *testing.T, max int) (p *Pool, addr string, started chan net.Conn, release, served chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p = NewPool(ln, max, time.Minute)
	started = make(chan net.Conn, 8)
	release, served = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(served)
		p.Serve(func(c net.Conn) bool {
			started <- c
			<-release
			return false
		})
	}()
	t.Cleanup(func() {
		p.Close()
		<-served
	})
	return p, ln.Addr().String(), started, release, served
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func awaitStart(t *testing.T, started chan net.Conn) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not start")
	}
}

// TestPoolBoundsHandlers: with two slots held, a third client waits in
// the backlog until a handler returns.
func TestPoolBoundsHandlers(t *testing.T) {
	_, addr, started, release, _ := blockingPool(t, 2)
	dial(t, addr)
	dial(t, addr)
	awaitStart(t, started)
	awaitStart(t, started)
	dial(t, addr)
	select {
	case <-started:
		t.Fatal("a third handler started with both slots held")
	case <-time.After(200 * time.Millisecond):
	}
	release <- struct{}{}
	awaitStart(t, started)
	close(release)
}

// TestPoolCloseWhileFull: Close ends Serve at once while every slot is
// held and a client waits, and closes the listener.
func TestPoolCloseWhileFull(t *testing.T) {
	p, addr, started, release, served := blockingPool(t, 2)
	defer close(release)
	dial(t, addr)
	dial(t, addr)
	awaitStart(t, started)
	awaitStart(t, started)
	dial(t, addr)
	p.Close()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close with every slot held")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepts after Close")
	}
}

// TestPoolDrain: Drain reports false while a handler outlives its
// timeout, and true once the handler returns.
func TestPoolDrain(t *testing.T) {
	p, addr, started, release, served := blockingPool(t, 2)
	dial(t, addr)
	awaitStart(t, started)
	p.Close()
	<-served
	if p.Drain(50 * time.Millisecond) {
		t.Fatal("Drain reported true with a handler still running")
	}
	close(release)
	if !p.Drain(5 * time.Second) {
		t.Fatal("Drain reported false after the handler returned")
	}
}

// TestPoolDeadlineClosesIdleConn: a client that sends nothing is cut off
// at the pool's per-connection deadline, not held forever.
func TestPoolDeadlineClosesIdleConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(ln, 2, 100*time.Millisecond)
	served := make(chan struct{})
	go func() {
		defer close(served)
		p.Serve(func(c net.Conn) bool {
			io.Copy(io.Discard, c) // returns when the deadline expires the read
			return false
		})
	}()
	defer func() {
		p.Close()
		<-served
	}()
	c := dial(t, ln.Addr().String())
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle client read %v, want EOF from the pool closing it", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("idle connection closed after %v, deadline 100ms", d)
	}
}

// TestPoolLeavesHandedOffConn: a connection its handler hands off stays
// open after the handler returns, and its slot is free.
func TestPoolLeavesHandedOffConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(ln, 1, time.Minute)
	handed := make(chan net.Conn, 2)
	go p.Serve(func(c net.Conn) bool {
		handed <- c
		return true
	})
	defer p.Close()
	c := dial(t, ln.Addr().String())
	owned := <-handed
	defer owned.Close()
	dial(t, ln.Addr().String())
	select {
	case c2 := <-handed: // the one slot came back
		c2.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("the slot of a handed-off connection was not freed")
	}
	if _, err := owned.Write([]byte("x")); err != nil {
		t.Fatalf("handed-off connection closed by the pool: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatalf("client read %v, want the owner's byte", err)
	}
}

// flakyListener fails its first errs Accepts with EMFILE, the way a
// process out of file descriptors sees them, then hands out conns until
// it is closed.
type flakyListener struct {
	errs   int32
	calls  atomic.Int32
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newFlakyListener(errs int32) *flakyListener {
	return &flakyListener{errs: errs, conns: make(chan net.Conn, 1), closed: make(chan struct{})}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.calls.Add(1) <= l.errs {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// serveFlaky runs a pool on ln whose handler reports each conn on
// handled; served is closed when Serve returns.
func serveFlaky(ln net.Listener) (p *Pool, handled chan net.Conn, served chan struct{}) {
	p = NewPool(ln, 2, time.Minute)
	handled, served = make(chan net.Conn, 1), make(chan struct{})
	go func() {
		defer close(served)
		p.Serve(func(c net.Conn) bool {
			handled <- c
			return true
		})
	}()
	return p, handled, served
}

// TestPoolRetriesTemporaryAcceptError: an EMFILE from Accept is an
// episode to wait out, not the end of the server: the connection the
// listener hands out next is still served.
func TestPoolRetriesTemporaryAcceptError(t *testing.T) {
	ln := newFlakyListener(1)
	p, handled, served := serveFlaky(ln)
	defer func() {
		p.Close()
		<-served
	}()
	client, server := net.Pipe()
	defer client.Close()
	ln.conns <- server
	select {
	case c := <-handled:
		c.Close()
	case <-served:
		t.Fatal("Serve returned on a temporary Accept error")
	case <-time.After(5 * time.Second):
		t.Fatal("the connection after the EMFILE was never served")
	}
}

// TestPoolCloseEndsAcceptBackoff: Close ends Serve within 100 ms even
// while it backs off from a run of EMFILEs, and the run files one
// warning, not one per Accept.
func TestPoolCloseEndsAcceptBackoff(t *testing.T) {
	var logged bytes.Buffer
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer func() {
		slog.SetDefault(prev) // which alone leaves the log package writing into logged
		log.SetOutput(w)
		log.SetFlags(flags)
	}()
	ln := newFlakyListener(1 << 30)
	p, _, served := serveFlaky(ln)
	// Six failures in, the backoff is 160 ms: Close lands inside it.
	for deadline := time.Now().Add(5 * time.Second); ln.calls.Load() < 6; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Serve stopped accepting after %d calls", ln.calls.Load())
		}
	}
	start := time.Now()
	p.Close()
	select {
	case <-served:
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Serve returned %v after Close, want under 100ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close during a backoff")
	}
	if n := strings.Count(logged.String(), "level=WARN"); n != 1 {
		t.Fatalf("%d warnings for one episode of EMFILEs, want 1:\n%s", n, logged.String())
	}
}
