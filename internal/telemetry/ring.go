package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// DefaultEventCap bounds the event ring when NewEventRing gets cap <= 0.
const DefaultEventCap = 512

// EventRing is a fixed-capacity slog.Handler that retains the most
// recent structured log events as formatted lines. Binaries install it
// behind their normal handler (SideDoor.Open) and dump it on panic or
// SIGTERM, so a crashed run leaves a post-mortem trail of its final
// events even when routine logging was filtered or discarded.
type EventRing struct {
	mu    sync.Mutex
	lines []string
	next  int
	full  bool

	// pre holds attrs from WithAttrs, already rendered with the group
	// prefix in force when they were added; prefix applies to record attrs
	// and future WithAttrs.
	pre    string
	prefix string
	parent *EventRing // set on derived handlers; dump state lives on the root
}

// NewEventRing returns a ring retaining the last capacity events.
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventRing{lines: make([]string, capacity)}
}

// root follows WithAttrs/WithGroup derivation back to the shared ring.
func (e *EventRing) root() *EventRing {
	for e.parent != nil {
		e = e.parent
	}
	return e
}

// Enabled records everything; level filtering belongs to the primary
// handler, the ring is the flight recorder.
func (e *EventRing) Enabled(context.Context, slog.Level) bool { return true }

// Handle formats the record into one line and appends it to the ring.
func (e *EventRing) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s", r.Time.Format(time.RFC3339Nano), r.Level, r.Message)
	b.WriteString(e.pre)
	r.Attrs(func(a slog.Attr) bool {
		writeAttr(&b, e.prefix, a)
		return true
	})
	root := e.root()
	root.mu.Lock()
	root.lines[root.next] = b.String()
	root.next = (root.next + 1) % len(root.lines)
	if root.next == 0 {
		root.full = true
	}
	root.mu.Unlock()
	return nil
}

func writeAttr(b *strings.Builder, prefix string, a slog.Attr) {
	key := a.Key
	if prefix != "" {
		key = prefix + "." + key
	}
	fmt.Fprintf(b, " %s=%v", key, a.Value)
}

// WithAttrs returns a handler whose records carry the extra attrs but
// share this ring's storage.
func (e *EventRing) WithAttrs(attrs []slog.Attr) slog.Handler {
	var b strings.Builder
	b.WriteString(e.pre)
	for _, a := range attrs {
		writeAttr(&b, e.prefix, a)
	}
	return &EventRing{parent: e.root(), pre: b.String(), prefix: e.prefix}
}

// WithGroup returns a handler whose subsequent attr keys are prefixed by
// name but shares this ring's storage.
func (e *EventRing) WithGroup(name string) slog.Handler {
	p := name
	if e.prefix != "" {
		p = e.prefix + "." + name
	}
	return &EventRing{parent: e.root(), pre: e.pre, prefix: p}
}

// Events returns the retained lines, oldest first.
func (e *EventRing) Events() []string {
	root := e.root()
	root.mu.Lock()
	defer root.mu.Unlock()
	var out []string
	if root.full {
		out = make([]string, 0, len(root.lines))
		out = append(out, root.lines[root.next:]...)
		out = append(out, root.lines[:root.next]...)
	} else {
		out = append(out, root.lines[:root.next]...)
	}
	return out
}

// Dump writes the retained events to w, oldest first, fenced so a dump
// is findable in interleaved stderr.
func (e *EventRing) Dump(w io.Writer) {
	events := e.Events()
	fmt.Fprintf(w, "--- telemetry event ring (%d events, oldest first) ---\n", len(events))
	for _, line := range events {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "--- end event ring ---")
}

// teeHandler feeds every record to both primary and the ring. The ring
// sees records the primary's level filter drops — that is the point: the
// post-mortem trail is complete even when routine output is quiet.
type teeHandler struct {
	primary slog.Handler
	ring    slog.Handler
}

func (t teeHandler) Enabled(ctx context.Context, lvl slog.Level) bool { return true }

func (t teeHandler) Handle(ctx context.Context, r slog.Record) error {
	if t.primary.Enabled(ctx, r.Level) {
		_ = t.primary.Handle(ctx, r.Clone())
	}
	return t.ring.Handle(ctx, r)
}

func (t teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return teeHandler{primary: t.primary.WithAttrs(attrs), ring: t.ring.WithAttrs(attrs)}
}

func (t teeHandler) WithGroup(name string) slog.Handler {
	return teeHandler{primary: t.primary.WithGroup(name), ring: t.ring.WithGroup(name)}
}

// DumpOnPanic dumps the ring and re-panics; defer it first thing in main:
//
//	defer telemetry.DumpOnPanic(ring, os.Stderr)
func DumpOnPanic(ring *EventRing, w io.Writer) {
	if r := recover(); r != nil {
		fmt.Fprintf(w, "panic: %v\n", r)
		ring.Dump(w)
		panic(r)
	}
}
