package telemetry

import (
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestEventRingRetainsMostRecent(t *testing.T) {
	ring := NewEventRing(4)
	log := slog.New(ring)
	for i := 0; i < 7; i++ {
		log.Info("event", "i", i)
	}
	events := ring.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for j, want := range []string{"i=3", "i=4", "i=5", "i=6"} {
		if !strings.Contains(events[j], want) {
			t.Fatalf("events[%d] = %q, want it to contain %q (oldest first)", j, events[j], want)
		}
	}
}

func TestEventRingAttrsAndGroups(t *testing.T) {
	ring := NewEventRing(8)
	log := slog.New(ring).With("shard", 3).WithGroup("wal").With("dir", "/tmp/x")
	log.Warn("append failed", "err", "disk full")
	events := ring.Events()
	if len(events) != 1 {
		t.Fatalf("retained %d events, want 1", len(events))
	}
	line := events[0]
	for _, want := range []string{"WARN", "append failed", "shard=3", "wal.dir=/tmp/x", "wal.err=disk full"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	// The pre-group attr must not carry the group prefix.
	if strings.Contains(line, "wal.shard") {
		t.Fatalf("pre-group attr wrongly prefixed: %q", line)
	}
}

func TestEventRingDump(t *testing.T) {
	ring := NewEventRing(4)
	slog.New(ring).Error("boom", "code", 7)
	var b strings.Builder
	ring.Dump(&b)
	out := b.String()
	for _, want := range []string{"telemetry event ring (1 events", "boom", "code=7", "end event ring"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump %q missing %q", out, want)
		}
	}
}

func TestTeeFeedsBothHandlers(t *testing.T) {
	ring := NewEventRing(8)
	var primaryOut strings.Builder
	primary := slog.NewTextHandler(&primaryOut, &slog.HandlerOptions{Level: slog.LevelWarn})
	log := slog.New(teeHandler{primary: primary, ring: ring})

	log.Info("quiet", "k", "v") // below primary's level: ring only
	log.Warn("loud")

	if strings.Contains(primaryOut.String(), "quiet") {
		t.Fatal("primary should have filtered the info event")
	}
	if !strings.Contains(primaryOut.String(), "loud") {
		t.Fatal("primary missed the warn event")
	}
	events := ring.Events()
	if len(events) != 2 {
		t.Fatalf("ring retained %d events, want 2 (flight recorder sees filtered events)", len(events))
	}
	// Derived handlers must keep feeding the same ring.
	slog.New(teeHandler{primary: primary, ring: ring}).With("a", 1).WithGroup("g").Warn("derived", "b", 2)
	events = ring.Events()
	last := events[len(events)-1]
	for _, want := range []string{"derived", "a=1", "g.b=2"} {
		if !strings.Contains(last, want) {
			t.Fatalf("derived line %q missing %q", last, want)
		}
	}
}

func TestEventRingConcurrent(t *testing.T) {
	ring := NewEventRing(64)
	log := slog.New(ring)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				log.Info("e", "w", w, "i", i)
				if i%32 == 0 {
					ring.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(ring.Events()); got != 64 {
		t.Fatalf("retained %d events, want full ring of 64", got)
	}
}
