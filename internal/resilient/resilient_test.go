package resilient

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBackoffScheduleSeededAndCapped(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	a := NewBackoff(base, cap, 7)
	b := NewBackoff(base, cap, 7)
	c := NewBackoff(base, cap, 8)
	var sa, sb, sc []time.Duration
	for i := 0; i < 10; i++ {
		sa = append(sa, a.Next())
		sb = append(sb, b.Next())
		sc = append(sc, c.Next())
	}
	diverged := false
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, sa[i], sb[i])
		}
		if sa[i] != sc[i] {
			diverged = true
		}
		// Attempt i's nominal delay is min(cap, base<<i); jitter keeps the
		// actual delay in [nominal/2, nominal).
		nominal := base << i
		if nominal > cap || nominal <= 0 {
			nominal = cap
		}
		if sa[i] < nominal/2 || sa[i] >= nominal {
			t.Fatalf("attempt %d delay %v outside [%v, %v)", i, sa[i], nominal/2, nominal)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical schedules")
	}
}

// position reads the breaker's stored state without resolving an elapsed
// cooldown (that is Allow's job).
func (b *Breaker) position() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	br := NewBreaker(3, time.Second, clock)
	for i := 0; i < 2; i++ {
		if !br.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		br.Failure()
	}
	if br.position() != Closed {
		t.Fatalf("state %v after 2 of 3 failures, want closed", br.position())
	}
	br.Failure()
	if br.position() != Open || br.Opens() != 1 {
		t.Fatalf("state %v opens %d after threshold, want open/1", br.position(), br.Opens())
	}
	if br.Allow() {
		t.Fatal("open breaker allowed traffic inside cooldown")
	}
	now = now.Add(time.Second)
	if !br.Allow() {
		t.Fatal("cooldown elapsed but no half-open probe admitted")
	}
	if br.Allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	br.Failure() // probe fails: re-open immediately
	if br.position() != Open || br.Opens() != 2 {
		t.Fatalf("failed probe left state %v opens %d, want open/2", br.position(), br.Opens())
	}
	now = now.Add(time.Second)
	if !br.Allow() {
		t.Fatal("second probe refused")
	}
	br.Success()
	if br.position() != Closed || !br.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	// One failure after recovery must not re-open: the consecutive count
	// restarted at zero.
	br.Failure()
	if br.position() != Closed {
		t.Fatal("single failure after recovery re-opened the breaker")
	}
}

// TestSplitTimeoutClientSurvivesDrip pins the satellite fix: a response
// body that keeps moving (a drip well past what a blanket timeout would
// allow) must complete, while a mid-body stall must fail at the idle
// deadline, not at a total-transfer cap.
func TestSplitTimeoutClientSurvivesDrip(t *testing.T) {
	const chunks = 8
	drip := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := w.(http.Flusher)
		for i := 0; i < chunks; i++ {
			fmt.Fprintf(w, "chunk-%d\n", i)
			fl.Flush()
			time.Sleep(30 * time.Millisecond)
		}
	}))
	defer drip.Close()

	// Idle 100ms < total transfer ~240ms: a blanket 100ms timeout dies,
	// the split client survives because every read makes progress.
	client := SplitTimeoutClient(time.Second, 100*time.Millisecond, nil)
	resp, err := client.Get(drip.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("drip transfer failed under split deadlines: %v", err)
	}
	if n := strings.Count(string(body), "chunk-"); n != chunks {
		t.Fatalf("read %d chunks, want %d", n, chunks)
	}

	blanket := &http.Client{Timeout: 100 * time.Millisecond}
	if resp, err := blanket.Get(drip.URL); err == nil {
		if _, err := io.ReadAll(resp.Body); err == nil {
			t.Fatal("blanket-timeout control unexpectedly survived the drip; the scenario is vacuous")
		}
		resp.Body.Close()
	}

	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "head")
		w.(http.Flusher).Flush()
		select { // well past idle, unless the client hangs up first
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}))
	defer stall.Close()
	start := time.Now()
	resp, err = client.Get(stall.URL)
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("mid-body stall did not fail")
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("stall detected after %v, want ~idle (100ms)", elapsed)
	}
}

func TestSplitTimeoutClientConnectDeadline(t *testing.T) {
	// A dial that black-holes must fail at the connect deadline even when
	// the injected dialer ignores context cancellation internals.
	client := SplitTimeoutClient(50*time.Millisecond, time.Second,
		func(ctx context.Context, network, addr string) (net.Conn, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	start := time.Now()
	_, err := client.Get("http://192.0.2.1:9/") // TEST-NET, never routable
	if err == nil {
		t.Fatal("black-holed connect succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("connect failed after %v, want ~50ms", elapsed)
	}
}
