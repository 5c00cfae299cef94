package faultnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlsfof/internal/stats"
	"tlsfof/internal/telemetry"
)

// Stats counts one directed link's fault activity. The injector updates
// the fields atomically; Injector.Stats returns coherent copies.
type Stats struct {
	// Conns counts connection attempts on the link, refused ones too.
	// Every other counter is an effect of some attempt, so snapshot
	// loads it last.
	Conns            uint64 `json:"conns"`
	Reads            uint64 `json:"reads,omitempty"`
	Writes           uint64 `json:"writes,omitempty"`
	BytesRead        uint64 `json:"bytes_read,omitempty"`
	BytesWritten     uint64 `json:"bytes_written,omitempty"`
	Truncates        uint64 `json:"truncates,omitempty"`
	Resets           uint64 `json:"resets,omitempty"`
	CorruptBytes     uint64 `json:"corrupt_bytes,omitempty"`
	GarbageBytes     uint64 `json:"garbage_bytes,omitempty"`
	Alerts           uint64 `json:"alerts,omitempty"`
	Stalls           uint64 `json:"stalls,omitempty"`
	Delays           uint64 `json:"delays,omitempty"`
	Throttled        uint64 `json:"throttled,omitempty"`
	DupSegments      uint64 `json:"dup_segments,omitempty"`
	SwappedPairs     uint64 `json:"swapped_pairs,omitempty"`
	CoalescedFlushes uint64 `json:"coalesced_flushes,omitempty"`
	CutDials         uint64 `json:"cut_dials,omitempty"`
	CutReads         uint64 `json:"cut_reads,omitempty"`
	CutWrites        uint64 `json:"cut_writes,omitempty"`
	Blackholes       uint64 `json:"blackholes,omitempty"`
}

func (s *Stats) add(field *uint64, n uint64) { atomic.AddUint64(field, n) }

// snapshot copies the stats without tearing and coherently: fields load
// in reverse declaration order, so Conns, the cause, loads after every
// effect. A scrape racing a wrap can then never show more alert
// prefixes than connections, or fault activity with no connection.
func (s *Stats) snapshot() Stats {
	var out Stats
	src, dst := reflect.ValueOf(s).Elem(), reflect.ValueOf(&out).Elem()
	for i := dst.NumField() - 1; i >= 0; i-- {
		dst.Field(i).SetUint(atomic.LoadUint64(src.Field(i).Addr().Interface().(*uint64)))
	}
	return out
}

// ConnSchedule is the fully derived fault state of one wrapped
// connection — everything nondeterministic about its behavior, pinned.
// Two injectors over the same plan produce identical schedules for the
// same per-link wrap order, which is the replayability contract
// TestFaultMatrix asserts.
type ConnSchedule struct {
	Link        string
	Conn        int // index among the link's connections
	Scenario    Scenario
	RNGSeed     uint64
	CorruptMask byte
	// Prefix is the exact injected byte prefix (alert record + garbage).
	Prefix []byte
}

// ErrInjectedReset is the error surfaced when a scenario resets the
// connection mid-flight. It stands in for the peer's RST.
var ErrInjectedReset = fmt.Errorf("faultnet: injected connection reset")

// errLinkCut is what a cut link surfaces on dials, reads and writes
// (unless it black-holes instead).
var errLinkCut = fmt.Errorf("faultnet: link cut: %w", ErrInjectedReset)

// Injector runs one Plan over named endpoints. Mount it on each
// participant's dialer, listener, DialContext or Transport under that
// participant's name; every connection a mount produces is the link
// (from, to) and meets the current phase's first matching rule: its byte
// scenario when the connection is wrapped, its link state on every
// operation. Advance is the deterministic drive; Start runs the phases'
// For durations on the wall clock for real-process use. Safe for
// concurrent use.
type Injector struct {
	plan Plan

	phase atomic.Int64
	flaps atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]string // dialed addr -> endpoint name
	links     map[string]*link  // "from:to", as rules name links
	schedule  []ConnSchedule
	timer     *time.Timer
	stopped   bool
}

// link is one directed link's accounting.
type link struct {
	stats Stats
	conns uint64 // connections wrapped so far: the next one's index
}

// New builds an injector at phase 0 of plan. A plan with no phases gets
// a single clean phase.
func New(plan Plan) *Injector {
	if len(plan.Phases) == 0 {
		plan.Phases = []Phase{{Name: "clean"}}
	}
	return &Injector{plan: plan, endpoints: make(map[string]string), links: make(map[string]*link)}
}

// Register names an endpoint address so DialContext dials to it resolve
// to name. host:port exactly as dialed.
func (in *Injector) Register(name, addr string) {
	in.mu.Lock()
	in.endpoints[addr] = name
	in.mu.Unlock()
}

// Phase returns the current phase index.
func (in *Injector) Phase() int { return int(in.phase.Load()) }

// Advance moves to the next phase (clamped at the last) and returns the
// new index. Every link whose cut condition flips counts one flap.
func (in *Injector) Advance() int {
	for {
		cur := in.phase.Load()
		if int(cur) >= len(in.plan.Phases)-1 {
			return int(cur)
		}
		if in.phase.CompareAndSwap(cur, cur+1) {
			in.countFlaps(int(cur), int(cur+1))
			return int(cur + 1)
		}
	}
}

func (in *Injector) countFlaps(from, to int) {
	pairs := make(map[[2]string]struct{})
	for _, ph := range []int{from, to} {
		for _, r := range in.plan.Phases[ph].Rules {
			pairs[[2]string{r.From, r.To}] = struct{}{}
		}
	}
	cut := func(ls LinkState) bool { return ls.Cut || ls.CutRecv }
	for p := range pairs {
		if cut(in.rule(from, p[0], p[1]).Link) != cut(in.rule(to, p[0], p[1]).Link) {
			in.flaps.Add(1)
		}
	}
}

// rule returns the first rule of phase matching from→to (the zero rule
// when none does).
func (in *Injector) rule(phase int, from, to string) Rule {
	for _, r := range in.plan.Phases[phase].Rules {
		if r.matches(from, to) {
			return r
		}
	}
	return Rule{}
}

// state is the current link state of from→to.
func (in *Injector) state(from, to string) LinkState {
	return in.rule(in.Phase(), from, to).Link
}

// Flaps counts links whose cut state flipped across phase transitions.
func (in *Injector) Flaps() uint64 { return in.flaps.Load() }

// Start runs the plan on the wall clock: each phase with a positive For
// advances automatically that long after it begins. Phases with For==0
// hold until Advance (or forever). Stop cancels the clock.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stopped = false
	in.armLocked()
}

func (in *Injector) armLocked() {
	if in.stopped {
		return
	}
	d := in.plan.Phases[in.Phase()].For
	if d <= 0 {
		return
	}
	in.timer = time.AfterFunc(d, func() {
		in.Advance()
		in.mu.Lock()
		in.armLocked()
		in.mu.Unlock()
	})
}

// Stop cancels the wall-clock schedule (the current phase freezes).
func (in *Injector) Stop() {
	in.mu.Lock()
	in.stopped = true
	if in.timer != nil {
		in.timer.Stop()
	}
	in.mu.Unlock()
}

// admit counts a connection attempt on from→to and refuses it when the
// link is cut: at once, or — black-holed — when ctx ends. With a nil ctx
// a black-holed link admits, and the conn's operations hang instead.
func (in *Injector) admit(ctx context.Context, from, to string) (*link, error) {
	in.mu.Lock()
	key := from + ":" + to
	l := in.links[key]
	if l == nil {
		l = &link{}
		in.links[key] = l
	}
	in.mu.Unlock()
	l.stats.add(&l.stats.Conns, 1)
	ls := in.state(from, to)
	switch {
	case !ls.Cut, ls.Blackhole && ctx == nil:
		return l, nil
	case ls.Blackhole:
		l.stats.add(&l.stats.CutDials, 1)
		l.stats.add(&l.stats.Blackholes, 1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	l.stats.add(&l.stats.CutDials, 1)
	return nil, errLinkCut
}

// wrap fixes conn's byte scenario (round-robin over the matching rule's
// scenarios by the link's connection index) and its RNG, seeded from
// (plan seed, link, connection index) alone, so a link's schedule replays
// from the seed whatever other links do.
func (in *Injector) wrap(conn net.Conn, from, to string, l *link) *Conn {
	r := in.rule(in.Phase(), from, to)
	key := from + ":" + to
	h := fnv.New64a()
	h.Write([]byte(key))
	in.mu.Lock()
	idx := l.conns
	l.conns++
	seed := in.plan.Seed ^ h.Sum64() ^ (idx+1)*0x9e3779b97f4a7c15
	c := &Conn{Conn: conn, in: in, from: from, to: to, st: &l.stats, rng: stats.NewRNG(seed), done: make(chan struct{})}
	c.mask = byte(c.rng.Uint64()) | 0x01 // nonzero: a corruption always changes the byte
	if len(r.Scenarios) > 0 {
		c.sc = r.Scenarios[idx%uint64(len(r.Scenarios))]
		if c.sc.AlertPrefix {
			c.pre = append(c.pre, spuriousAlert[:]...)
		}
		if c.sc.GarbagePrefix > 0 {
			garbage := make([]byte, c.sc.GarbagePrefix)
			c.rng.Bytes(garbage)
			c.pre = append(c.pre, garbage...)
		}
		in.schedule = append(in.schedule, ConnSchedule{
			Link: key, Conn: int(idx), Scenario: c.sc, RNGSeed: seed, CorruptMask: c.mask, Prefix: c.pre,
		})
	}
	in.mu.Unlock()
	c.st.add(&c.st.GarbageBytes, uint64(c.sc.GarbagePrefix))
	if c.sc.AlertPrefix {
		c.st.add(&c.st.Alerts, 1)
	}
	return c
}

// Dialer mounts the injector on a host-keyed dial function for endpoint
// from: a dial to host is the link from→host.
func (in *Injector) Dialer(from string, dial func(host string) (net.Conn, error)) func(host string) (net.Conn, error) {
	return func(host string) (net.Conn, error) {
		l, err := in.admit(nil, from, host)
		if err != nil {
			return nil, err
		}
		conn, err := dial(host)
		if err != nil {
			return nil, err
		}
		return in.wrap(conn, from, host, l), nil
	}
}

// DialContext mounts the injector on a context dialer for endpoint from:
// a dial reaches the endpoint Registered for its address, or "*". base
// nil uses a plain net.Dialer.
func (in *Injector) DialContext(from string, base func(ctx context.Context, network, addr string) (net.Conn, error)) func(ctx context.Context, network, addr string) (net.Conn, error) {
	if base == nil {
		var d net.Dialer
		base = d.DialContext
	}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		in.mu.Lock()
		to, ok := in.endpoints[addr]
		in.mu.Unlock()
		if !ok {
			to = "*"
		}
		l, err := in.admit(ctx, from, to)
		if err != nil {
			return nil, err
		}
		conn, err := base(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return in.wrap(conn, from, to, l), nil
	}
}

// Transport mounts the injector on an HTTP transport for endpoint from.
// Keep-alives are off, so every request meets the schedule afresh.
func (in *Injector) Transport(from string) *http.Transport {
	return &http.Transport{DisableKeepAlives: true, DialContext: in.DialContext(from, nil)}
}

// Listener mounts the injector on ln for endpoint self: an accepted
// connection is the link *→self, and a cut link closes it unserved.
func (in *Injector) Listener(self string, ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in, self: self}
}

type listener struct {
	net.Listener
	in   *Injector
	self string
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		lk, err := l.in.admit(nil, "*", l.self)
		if err != nil {
			conn.Close()
			continue
		}
		return l.in.wrap(conn, "*", l.self, lk), nil
	}
}

// Stats snapshots per-link fault accounting, keyed "from:to".
func (in *Injector) Stats() map[string]Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]Stats, len(in.links))
	for key, l := range in.links {
		out[key] = l.stats.snapshot()
	}
	return out
}

// Schedule snapshots the derived schedule of every connection wrapped
// under a byte scenario so far, in wrap order.
func (in *Injector) Schedule() []ConnSchedule {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]ConnSchedule(nil), in.schedule...)
}

// MountMetrics registers the injector on reg: chaos_phase,
// chaos_flaps_total, and one faultnet_<counter>_total per Stats counter,
// summed over links — so /metrics shows whether a fault fired.
func (in *Injector) MountMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("chaos_phase", "index of the fault plan's current phase", func() float64 { return float64(in.Phase()) })
	reg.GaugeFunc("chaos_flaps_total", "links whose cut state flipped at a phase change", func() float64 { return float64(in.Flaps()) })
	fields := reflect.TypeOf(Stats{})
	for i := 0; i < fields.NumField(); i++ {
		name, _, _ := strings.Cut(fields.Field(i).Tag.Get("json"), ",")
		reg.GaugeFunc("faultnet_"+name+"_total", "injected fault activity summed over links: "+name, func() float64 {
			var sum uint64
			for _, st := range in.Stats() {
				sum += reflect.ValueOf(st).Field(i).Uint()
			}
			return float64(sum)
		})
	}
}
