package faultnet

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlsfof/internal/stats"
)

// LinkState is the condition of one directed link (from → to) during
// one chaos phase. The zero value is a healthy link. Faults are applied
// on the dialing side: every request/response exchange in the cluster
// (ingest routing, replication tails, control, merge) is client-driven
// HTTP, so dialer-side injection covers every link, and directionality
// falls out naturally — cutting a→b leaves b→a untouched.
type LinkState struct {
	// Cut kills the link outright: new dials are refused and established
	// conns fail on their next Read or Write (the symmetric partition).
	Cut bool
	// CutRecv delivers requests but destroys responses: Writes pass,
	// Reads hang to the conn deadline (silence, as a real one-way packet
	// drop — an instant reset would abort the in-flight request write on
	// the shared conn and degrade to a symmetric cut). This makes a
	// server APPLY a batch whose ack the client never sees — the
	// scenario that forces duplicate-suppression into the ingest
	// protocol.
	CutRecv bool
	// Blackhole makes cut operations hang until the conn deadline
	// instead of failing fast with a reset — the gray-failure flavor
	// where a middlebox silently eats packets.
	Blackhole bool
	// Latency is added before every Read (the slow-but-alive node),
	// jittered ±LatencyJitter by the per-conn seeded RNG.
	Latency       time.Duration
	LatencyJitter time.Duration
	// ThrottleBytes caps every Read at this many bytes and inserts
	// ThrottleDelay (default 1ms) between reads — a crude but
	// deterministic bandwidth clamp.
	ThrottleBytes int
	ThrottleDelay time.Duration
}

// LinkRule scopes a LinkState to a directed endpoint pair. "*" matches
// any endpoint (including unregistered ones on the To side).
type LinkRule struct {
	From, To string
	State    LinkState
}

func (r LinkRule) matches(from, to string) bool {
	return (r.From == "*" || r.From == from) && (r.To == "*" || r.To == to)
}

// ChaosPhase is one interval of the schedule: the link rules in force
// until the controller advances. Rules are evaluated in order; the
// first match wins (so a specific pair can carve an exception out of a
// wildcard that follows it). Links matching no rule are healthy.
type ChaosPhase struct {
	Name string
	// For auto-advances to the next phase this long after the phase
	// starts, when the controller is Started; 0 means the phase holds
	// until Advance is called (the deterministic test mode).
	For   time.Duration
	Rules []LinkRule
}

// ChaosPlan is a seeded, phase-scheduled link-state matrix for a whole
// cluster — internal/faultnet's per-connection Plan lifted to the
// topology level. The same plan driven by the same advance sequence
// produces the same fault exposure, which is what lets the chaos matrix
// pin golden tables under partitions.
type ChaosPlan struct {
	Seed   uint64
	Phases []ChaosPhase
}

// LinkStats counts one directed link's injected activity. Updated
// atomically; safe to snapshot while traffic flows.
type LinkStats struct {
	Dials          uint64 `json:"dials"`
	CutDials       uint64 `json:"cut_dials"`
	CutReads       uint64 `json:"cut_reads"`
	CutWrites      uint64 `json:"cut_writes"`
	DelayedReads   uint64 `json:"delayed_reads"`
	ThrottledReads uint64 `json:"throttled_reads"`
	Blackholes     uint64 `json:"blackholes"`
}

type linkCounters struct {
	dials, cutDials, cutReads, cutWrites, delayed, throttled, blackholes atomic.Uint64
}

func (c *linkCounters) snapshot() LinkStats {
	// Activity counters load before Dials (the cause), mirroring
	// ScenarioStats.Snapshot's effect-before-cause order.
	out := LinkStats{
		CutDials:       c.cutDials.Load(),
		CutReads:       c.cutReads.Load(),
		CutWrites:      c.cutWrites.Load(),
		DelayedReads:   c.delayed.Load(),
		ThrottledReads: c.throttled.Load(),
		Blackholes:     c.blackholes.Load(),
	}
	out.Dials = c.dials.Load()
	return out
}

// ErrLinkCut is the error a cut link surfaces on dials, reads, and
// writes (unless the state black-holes instead).
var ErrLinkCut = fmt.Errorf("faultnet: chaos link cut: %w", ErrInjectedReset)

// Controller drives one ChaosPlan over a set of named endpoints. Mount
// it on each participant's dialer (DialContext) with
// that participant's name; the controller resolves the destination
// endpoint from the dialed address and applies the current phase's rule
// for the (from, to) pair on every operation — so a phase change cuts,
// slows, or heals established connections mid-flight, not just new
// dials. Advance is the deterministic drive; Start runs the
// phases' For durations on the wall clock for real-process use.
type Controller struct {
	plan ChaosPlan

	phase atomic.Int64
	flaps atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]string // addr -> name
	links     map[string]*linkCounters
	connSeq   uint64
	timer     *time.Timer
	stopped   bool
}

// NewController builds a controller at phase 0 of plan. A plan with no
// phases gets a single clean phase.
func NewController(plan ChaosPlan) *Controller {
	if len(plan.Phases) == 0 {
		plan.Phases = []ChaosPhase{{Name: "clean"}}
	}
	return &Controller{
		plan:      plan,
		endpoints: make(map[string]string),
		links:     make(map[string]*linkCounters),
	}
}

// Register names an endpoint address so dials to it resolve to name in
// the link matrix. host:port exactly as dialed.
func (c *Controller) Register(name, addr string) {
	c.mu.Lock()
	c.endpoints[addr] = name
	c.mu.Unlock()
}

// Phase returns the current phase index.
func (c *Controller) Phase() int { return int(c.phase.Load()) }

// Advance moves to the next phase (clamped at the last) and returns the
// new index. Every link whose Cut bit flips counts one flap.
func (c *Controller) Advance() int {
	for {
		cur := c.phase.Load()
		if int(cur) >= len(c.plan.Phases)-1 {
			return int(cur)
		}
		if c.phase.CompareAndSwap(cur, cur+1) {
			c.countFlaps(int(cur), int(cur+1))
			return int(cur + 1)
		}
	}
}

func (c *Controller) countFlaps(from, to int) {
	// A flap is a link whose Cut condition changed across the phase
	// boundary — the flapping-link scenarios assert this fired.
	pairs := make(map[[2]string]struct{})
	for _, r := range c.plan.Phases[from].Rules {
		pairs[[2]string{r.From, r.To}] = struct{}{}
	}
	for _, r := range c.plan.Phases[to].Rules {
		pairs[[2]string{r.From, r.To}] = struct{}{}
	}
	for p := range pairs {
		a := c.ruleFor(from, p[0], p[1])
		b := c.ruleFor(to, p[0], p[1])
		if (a.Cut || a.CutRecv) != (b.Cut || b.CutRecv) {
			c.flaps.Add(1)
		}
	}
}

func (c *Controller) ruleFor(phase int, from, to string) LinkState {
	for _, r := range c.plan.Phases[phase].Rules {
		if r.matches(from, to) {
			return r.State
		}
	}
	return LinkState{}
}

// Flaps counts links whose cut state flipped across phase transitions.
func (c *Controller) Flaps() uint64 { return c.flaps.Load() }

// Start runs the plan on the wall clock: each phase with a positive For
// advances automatically that long after it begins. Phases with For==0
// hold until Advance (or forever). Stop cancels the clock.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = false
	c.armLocked()
}

func (c *Controller) armLocked() {
	if c.stopped {
		return
	}
	i := c.Phase()
	if i >= len(c.plan.Phases) {
		return
	}
	d := c.plan.Phases[i].For
	if d <= 0 {
		return
	}
	c.timer = time.AfterFunc(d, func() {
		c.Advance()
		c.mu.Lock()
		c.armLocked()
		c.mu.Unlock()
	})
}

// Stop cancels the wall-clock schedule (the current phase freezes).
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
}

// state resolves the current LinkState for a directed pair.
func (c *Controller) state(from, to string) LinkState {
	i := c.Phase()
	if i >= len(c.plan.Phases) {
		i = len(c.plan.Phases) - 1
	}
	return c.ruleFor(i, from, to)
}

func (c *Controller) counters(from, to string) *linkCounters {
	key := from + "->" + to
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := c.links[key]
	if lc == nil {
		lc = &linkCounters{}
		c.links[key] = lc
	}
	return lc
}

// Stats snapshots per-link fault accounting, keyed "from->to".
func (c *Controller) Stats() map[string]LinkStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]LinkStats, len(c.links))
	for key, lc := range c.links {
		out[key] = lc.snapshot()
	}
	return out
}

// DialContext returns a context dial function for the named endpoint:
// every conn it produces is subject to the link matrix between from and
// the resolved destination. base nil uses a plain net.Dialer.
func (c *Controller) DialContext(from string, base func(ctx context.Context, network, addr string) (net.Conn, error)) func(ctx context.Context, network, addr string) (net.Conn, error) {
	if base == nil {
		var d net.Dialer
		base = d.DialContext
	}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c.mu.Lock()
		to, known := c.endpoints[addr]
		c.connSeq++
		seq := c.connSeq
		c.mu.Unlock()
		if !known {
			to = "*"
		}
		lc := c.counters(from, to)
		lc.dials.Add(1)
		st := c.state(from, to)
		if st.Cut {
			lc.cutDials.Add(1)
			if st.Blackhole {
				lc.blackholes.Add(1)
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return nil, ErrLinkCut
		}
		conn, err := base(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		seed := c.plan.Seed ^ (seq+1)*0x9e3779b97f4a7c15
		return &chaosConn{
			Conn: conn,
			ctrl: c,
			from: from,
			to:   to,
			lc:   lc,
			rng:  stats.NewRNG(seed),
			done: make(chan struct{}),
		}, nil
	}
}

// chaosConn applies the controller's CURRENT link state on every
// operation, so a phase change mid-connection takes effect immediately.
type chaosConn struct {
	net.Conn
	ctrl     *Controller
	from, to string
	lc       *linkCounters
	rng      *stats.RNG

	rngMu sync.Mutex

	dlMu       sync.Mutex
	rdDeadline time.Time
	wrDeadline time.Time

	closeOnce sync.Once
	done      chan struct{}
}

func (cc *chaosConn) SetDeadline(t time.Time) error {
	cc.dlMu.Lock()
	cc.rdDeadline, cc.wrDeadline = t, t
	cc.dlMu.Unlock()
	return cc.Conn.SetDeadline(t)
}

func (cc *chaosConn) SetReadDeadline(t time.Time) error {
	cc.dlMu.Lock()
	cc.rdDeadline = t
	cc.dlMu.Unlock()
	return cc.Conn.SetReadDeadline(t)
}

func (cc *chaosConn) SetWriteDeadline(t time.Time) error {
	cc.dlMu.Lock()
	cc.wrDeadline = t
	cc.dlMu.Unlock()
	return cc.Conn.SetWriteDeadline(t)
}

func (cc *chaosConn) Close() error {
	cc.closeOnce.Do(func() { close(cc.done) })
	return cc.Conn.Close()
}

// hang blocks until the conn's deadline or Close — the black-hole
// failure mode, indistinguishable from packet loss.
func (cc *chaosConn) hang(deadline time.Time) error {
	cc.lc.blackholes.Add(1)
	if deadline.IsZero() {
		<-cc.done
		return net.ErrClosed
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-t.C:
		return stallTimeoutError{}
	case <-cc.done:
		return net.ErrClosed
	}
}

// pause sleeps d, honoring the deadline and Close (same contract as
// Conn.pause).
func (cc *chaosConn) pause(d time.Duration, deadline time.Time) error {
	if d <= 0 {
		return nil
	}
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < d {
			if until > 0 {
				t := time.NewTimer(until)
				defer t.Stop()
				select {
				case <-t.C:
				case <-cc.done:
					return net.ErrClosed
				}
			}
			return stallTimeoutError{}
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-cc.done:
		return net.ErrClosed
	}
}

func (cc *chaosConn) readDeadline() time.Time {
	cc.dlMu.Lock()
	defer cc.dlMu.Unlock()
	return cc.rdDeadline
}

func (cc *chaosConn) writeDeadline() time.Time {
	cc.dlMu.Lock()
	defer cc.dlMu.Unlock()
	return cc.wrDeadline
}

func (cc *chaosConn) Read(p []byte) (int, error) {
	st := cc.ctrl.state(cc.from, cc.to)
	if st.Cut || st.CutRecv {
		cc.lc.cutReads.Add(1)
		// A one-way cut is silence, not a reset: the peer's packets simply
		// never arrive. An instant read error would make the HTTP transport
		// tear down the conn before the request write completes, turning
		// the asymmetric cut into a symmetric one. Hang to the deadline so
		// the request flows and only the response dies.
		if st.Blackhole || (st.CutRecv && !st.Cut) {
			return 0, cc.hang(cc.readDeadline())
		}
		cc.Conn.Close() // the pooled conn must not be reused healthy
		return 0, ErrLinkCut
	}
	if st.Latency > 0 {
		d := st.Latency
		if st.LatencyJitter > 0 {
			cc.rngMu.Lock()
			d += time.Duration(cc.rng.Uint64() % uint64(st.LatencyJitter))
			cc.rngMu.Unlock()
		}
		cc.lc.delayed.Add(1)
		if err := cc.pause(d, cc.readDeadline()); err != nil {
			return 0, err
		}
	}
	limit := len(p)
	if st.ThrottleBytes > 0 && limit > st.ThrottleBytes {
		limit = st.ThrottleBytes
	}
	if st.ThrottleBytes > 0 {
		cc.lc.throttled.Add(1)
		delay := st.ThrottleDelay
		if delay <= 0 {
			delay = time.Millisecond
		}
		if err := cc.pause(delay, cc.readDeadline()); err != nil {
			return 0, err
		}
	}
	if limit == 0 && len(p) > 0 {
		limit = 1
	}
	return cc.Conn.Read(p[:limit])
}

func (cc *chaosConn) Write(p []byte) (int, error) {
	st := cc.ctrl.state(cc.from, cc.to)
	if st.Cut {
		cc.lc.cutWrites.Add(1)
		if st.Blackhole {
			return 0, cc.hang(cc.writeDeadline())
		}
		cc.Conn.Close()
		return 0, ErrLinkCut
	}
	return cc.Conn.Write(p)
}

// ParseChaosSpec parses the -chaos flag DSL into a plan. Phases are
// separated by ';'; each phase is comma-separated options:
//
//	seed=N          plan seed (any phase; last wins)
//	name=S          phase name
//	for=DUR         wall-clock auto-advance (Start mode)
//	cut=F:T         cut the directed link F→T
//	cutrecv=F:T     one-way cut: F's requests reach T, responses die
//	blackhole=F:T   like cut, but operations hang to the deadline
//	lat=F:T:DUR     add DUR latency to F→T reads
//	throttle=F:T:N  cap F→T reads at N bytes each
//
// F and T are endpoint names registered on the controller, or "*".
// Example: "for=2s;cut=b:*,for=3s,name=partition;name=healed".
func ParseChaosSpec(spec string) (ChaosPlan, error) {
	plan := ChaosPlan{Seed: 1}
	for _, phaseSpec := range strings.Split(spec, ";") {
		phase := ChaosPhase{}
		for _, opt := range strings.Split(phaseSpec, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			key, val, hasVal := strings.Cut(opt, "=")
			if !hasVal {
				return ChaosPlan{}, fmt.Errorf("faultnet: chaos option %q needs a value", key)
			}
			link := func() (from, to, rest string, err error) {
				parts := strings.SplitN(val, ":", 3)
				if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
					return "", "", "", fmt.Errorf("faultnet: chaos %s=%q: want FROM:TO", key, val)
				}
				if len(parts) == 3 {
					rest = parts[2]
				}
				return parts[0], parts[1], rest, nil
			}
			switch key {
			case "seed":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return ChaosPlan{}, fmt.Errorf("faultnet: bad chaos seed %q", val)
				}
				plan.Seed = n
			case "name":
				phase.Name = val
			case "for":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return ChaosPlan{}, fmt.Errorf("faultnet: bad chaos duration %q", val)
				}
				phase.For = d
			case "cut", "cutrecv", "blackhole":
				from, to, _, err := link()
				if err != nil {
					return ChaosPlan{}, err
				}
				st := LinkState{}
				switch key {
				case "cut":
					st.Cut = true
				case "cutrecv":
					st.CutRecv = true
				case "blackhole":
					st.Cut = true
					st.Blackhole = true
				}
				phase.Rules = append(phase.Rules, LinkRule{From: from, To: to, State: st})
			case "lat":
				from, to, rest, err := link()
				if err != nil {
					return ChaosPlan{}, err
				}
				d, derr := time.ParseDuration(rest)
				if derr != nil || d < 0 {
					return ChaosPlan{}, fmt.Errorf("faultnet: bad chaos latency %q", rest)
				}
				phase.Rules = append(phase.Rules, LinkRule{From: from, To: to, State: LinkState{Latency: d}})
			case "throttle":
				from, to, rest, err := link()
				if err != nil {
					return ChaosPlan{}, err
				}
				n, nerr := strconv.Atoi(rest)
				if nerr != nil || n <= 0 {
					return ChaosPlan{}, fmt.Errorf("faultnet: bad chaos throttle %q", rest)
				}
				phase.Rules = append(phase.Rules, LinkRule{From: from, To: to, State: LinkState{ThrottleBytes: n}})
			default:
				return ChaosPlan{}, fmt.Errorf("faultnet: unknown chaos option %q", key)
			}
		}
		plan.Phases = append(plan.Phases, phase)
	}
	return plan, nil
}
