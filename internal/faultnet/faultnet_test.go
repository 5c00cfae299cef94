package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// mustInjector parses spec and builds its injector.
func mustInjector(t testing.TB, spec string) *Injector {
	t.Helper()
	plan, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return New(plan)
}

// wrapPipe returns the fault-wrapped client end of a pipe, dialed as the
// link client:peer, and the raw peer end.
func wrapPipe(t *testing.T, in *Injector) (net.Conn, net.Conn) {
	t.Helper()
	client, peer := net.Pipe()
	fc, err := in.Dialer("client", func(string) (net.Conn, error) { return client, nil })("peer")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close(); peer.Close() })
	return fc, peer
}

func TestScheduleReplayIsIdentical(t *testing.T) {
	build := func() []ConnSchedule {
		in := mustInjector(t, "all=*:*, seed=42")
		for i := 0; i < 30; i++ {
			c, _ := net.Pipe()
			host := []string{"a", "b", "c"}[i%3]
			fc, _ := in.Dialer("probe", func(string) (net.Conn, error) { return c, nil })(host)
			fc.Close()
		}
		return in.Schedule()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\nvs\n%+v", a, b)
	}
	if len(a) != 30 {
		t.Fatalf("schedule has %d entries, want 30", len(a))
	}
	// Each link rotates the grid on its own connection index.
	if a[0].Link != "probe:a" || a[3].Conn != 1 || a[3].Scenario.Name != Scenarios()[1].Name {
		t.Fatalf("per-link round-robin broken: %+v, %+v", a[0], a[3])
	}
}

func TestScheduleDependsOnSeed(t *testing.T) {
	mk := func(seed string) ConnSchedule {
		in := mustInjector(t, "garbage=*:*, seed="+seed)
		wrapPipe(t, in)
		return in.Schedule()[0]
	}
	a, b := mk("1"), mk("2")
	if bytes.Equal(a.Prefix, b.Prefix) && a.CorruptMask == b.CorruptMask {
		t.Fatalf("different seeds produced identical derived fault state")
	}
}

func TestTruncateAtExactOffset(t *testing.T) {
	in := mustInjector(t, "truncate=*:*")
	fc, peer := wrapPipe(t, in)
	go func() {
		buf := make([]byte, 1000)
		peer.Write(buf)
	}()
	got, err := io.ReadAll(fc)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 600 {
		t.Fatalf("read %d bytes, want exactly 600 then EOF", len(got))
	}
	if st := in.Stats()["client:peer"]; st.Truncates != 1 {
		t.Fatalf("stats.Truncates = %d, want 1", st.Truncates)
	}
}

func TestResetAtOffset(t *testing.T) {
	fc, peer := wrapPipe(t, mustInjector(t, "reset=*:*, reset=100"))
	go func() { peer.Write(make([]byte, 500)) }()
	n, err := io.Copy(io.Discard, fc)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("copy ended with %v after %d bytes, want ErrInjectedReset", err, n)
	}
	if n != 100 {
		t.Fatalf("delivered %d bytes before reset, want 100", n)
	}
	// The terminal error is sticky.
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset read: %v, want sticky ErrInjectedReset", err)
	}
}

func TestWriteFragmentation(t *testing.T) {
	fc, peer := wrapPipe(t, mustInjector(t, "clean=*:*, wfrag=3"))
	var sizes []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			n, err := peer.Read(buf)
			if n > 0 {
				sizes = append(sizes, n)
			}
			if err != nil {
				return
			}
		}
	}()
	msg := []byte("0123456789") // 10 bytes → 3+3+3+1
	if n, err := fc.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	fc.Close()
	<-done
	if len(sizes) != 4 || sizes[0] != 3 || sizes[3] != 1 {
		t.Fatalf("peer saw segments %v, want [3 3 3 1]", sizes)
	}
}

func TestWriteSwapReordersSegments(t *testing.T) {
	fc, peer := wrapPipe(t, mustInjector(t, "reorder=*:*, wfrag=2"))
	var got bytes.Buffer
	done := make(chan struct{})
	go func() { io.Copy(&got, peer); close(done) }()
	fc.Write([]byte("abcdef"))
	fc.Close()
	<-done
	if got.String() != "cdabef" {
		t.Fatalf("peer saw %q, want %q (adjacent 2-byte segments swapped)", got.String(), "cdabef")
	}
}

func TestCoalesceFlushesBeforeRead(t *testing.T) {
	fc, peer := wrapPipe(t, mustInjector(t, "coalesce=*:*"))
	done := make(chan []byte, 1)
	go func() {
		// Echo server: read the coalesced request, reply.
		buf := make([]byte, 64)
		n, _ := peer.Read(buf)
		peer.Write([]byte("ok"))
		done <- append([]byte(nil), buf[:n]...)
	}()
	fc.Write([]byte("hel"))
	fc.Write([]byte("lo"))
	// Nothing must have reached the peer yet; the Read below flushes.
	reply := make([]byte, 2)
	if _, err := io.ReadFull(fc, reply); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if req := <-done; string(req) != "hello" {
		t.Fatalf("peer saw %q, want one coalesced %q", req, "hello")
	}
}

func TestCorruptionIsDeterministic(t *testing.T) {
	run := func(seed string) []byte {
		fc, peer := wrapPipe(t, mustInjector(t, "corrupt=*:*, corrupt=5, seed="+seed))
		src := bytes.Repeat([]byte{0xAA}, 32)
		go func() { peer.Write(src); peer.Close() }()
		got, _ := io.ReadAll(fc)
		return got
	}
	a, b := run("3"), run("3")
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different corrupted streams")
	}
	clean := bytes.Repeat([]byte{0xAA}, 32)
	if bytes.Equal(a, clean) {
		t.Fatalf("corruption scenario delivered a clean stream")
	}
	// Corruptions land exactly every 5th byte (offsets 4, 9, ...).
	for i, c := range a {
		corrupted := c != 0xAA
		want := (i+1)%5 == 0
		if corrupted != want {
			t.Fatalf("byte %d corrupted=%v, want %v", i, corrupted, want)
		}
	}
}

func TestPrefixInjection(t *testing.T) {
	in := mustInjector(t, "alert=*:*, garbage=4, seed=9")
	fc, peer := wrapPipe(t, in)
	go func() { peer.Write([]byte("real")); peer.Close() }()
	got, err := io.ReadAll(fc)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	sched := in.Schedule()[0]
	if len(sched.Prefix) != len(spuriousAlert)+4 {
		t.Fatalf("schedule prefix %d bytes, want %d", len(sched.Prefix), len(spuriousAlert)+4)
	}
	want := append(append([]byte(nil), sched.Prefix...), "real"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("read %x, want prefix-then-stream %x", got, want)
	}
	if !bytes.HasPrefix(got, spuriousAlert[:]) {
		t.Fatalf("stream does not begin with the spurious alert record")
	}
}

func TestStallRespectsDeadline(t *testing.T) {
	fc, peer := wrapPipe(t, mustInjector(t, "slowloris=*:*, stallat=2"))
	go io.Copy(io.Discard, peer)
	fc.SetDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := fc.Write(make([]byte, 100))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled write returned %v, want a net.Error timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline-bounded stall took %v", elapsed)
	}
}

func TestStallAbortsOnClose(t *testing.T) {
	fc, peer := wrapPipe(t, mustInjector(t, "slowloris=*:*, stallat=2"))
	go io.Copy(io.Discard, peer)
	errc := make(chan error, 1)
	go func() {
		_, err := fc.Write(make([]byte, 100))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fc.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatalf("stalled write succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("stalled write did not abort on Close")
	}
}

// TestParseSpec covers the byte-scenario half of the language: scenario
// and "all" rules, knob overrides on the rule before them, and the
// errors a -fault flag must refuse.
func TestParseSpec(t *testing.T) {
	p, err := Parse("fragment=*:*, seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Phases[0].Rules[0]; p.Seed != 42 || len(r.Scenarios) != 1 || r.Scenarios[0].Name != "fragment" || r.From != "*" {
		t.Fatalf("Parse: %+v", p)
	}
	p, err = Parse("all=*:mitmd")
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Phases[0].Rules[0]; len(r.Scenarios) != len(Scenarios()) || r.To != "mitmd" {
		t.Fatalf("all selected %+v", r)
	}
	p, err = Parse("clean=*:*, truncate=128, wfrag=2, delay=3ms, dup")
	if err != nil {
		t.Fatal(err)
	}
	sc := p.Phases[0].Rules[0].Scenarios[0]
	if sc.TruncateReadAt != 128 || sc.WriteFragment != 2 || sc.ReadDelay != 3*time.Millisecond || !sc.WriteDup {
		t.Fatalf("overrides not applied: %+v", sc)
	}
	// A knob on a link-state rule gives it a clean scenario to override:
	// one rule, both kinds of fault.
	p, err = Parse("lat=a:b:5ms, reset=1")
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Phases[0].Rules[0]; r.Link.Latency != 5*time.Millisecond || len(r.Scenarios) != 1 || r.Scenarios[0].ResetReadAt != 1 {
		t.Fatalf("mixed rule: %+v", r)
	}
	for _, bad := range []string{"nope", "nope=*:*", "clean=*:*,seed=x", "clean=*:*,bogus=1", "clean=*:*,truncate=-1",
		"fragment=*:*:3", "clean=*:*,dup=1", "reset=1", "clean=:*"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	in := mustInjector(t, "duplicate=*:*, wfrag=4")
	fc, peer := wrapPipe(t, in)
	var got bytes.Buffer
	done := make(chan struct{})
	go func() { io.Copy(&got, peer); close(done) }()
	fc.Write([]byte("12345678"))
	fc.Close()
	<-done
	if got.String() != "1234123456785678" {
		t.Fatalf("dup stream = %q", got.String())
	}
	st := in.Stats()["client:peer"]
	if st.Conns != 1 || st.DupSegments != 2 || st.BytesWritten != 8 {
		t.Fatalf("stats = %+v", st)
	}
}
