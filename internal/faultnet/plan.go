package faultnet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Plan is a seeded, phased fault schedule: what every -fault and -chaos
// flag parses into. The same plan driven by the same advance sequence and
// the same per-link connection order produces the same fault exposure,
// which is what lets the fault and chaos matrices pin golden outcomes.
type Plan struct {
	Seed   uint64
	Phases []Phase
}

// Phase is one interval of the schedule: the rules in force until the
// injector advances. Rules are evaluated in order and the first match
// wins, so a specific pair can carve an exception out of a wildcard that
// follows it. A link matching no rule is healthy.
type Phase struct {
	Name string
	// For auto-advances to the next phase this long after the phase
	// starts, when the injector is Started; 0 means the phase holds until
	// Advance is called (the deterministic test mode).
	For   time.Duration
	Rules []Rule
}

// Rule scopes one fault to the directed link From→To, where From is the
// endpoint that dialed and To the one it reached. "*" matches any
// endpoint, including an unregistered one. A rule carries a link state,
// a byte scenario, or both.
type Rule struct {
	From, To string
	Link     LinkState
	// Scenarios are assigned round-robin to the link's connections as
	// they are wrapped; empty means no byte faults.
	Scenarios []Scenario
}

func (r Rule) matches(from, to string) bool {
	return (r.From == "*" || r.From == from) && (r.To == "*" || r.To == to)
}

// LinkState is the condition of one directed link during one phase. The
// zero value is a healthy link. Unlike a byte scenario, which is fixed
// when a connection is wrapped, the link state is re-read on every
// operation, so a phase change cuts, slows or heals live connections.
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
	// plus up to LatencyJitter drawn from the conn's seeded RNG.
	Latency       time.Duration
	LatencyJitter time.Duration
	// ThrottleBytes caps every Read at this many bytes and pauses
	// throttlePause before each — a crude but deterministic bandwidth
	// clamp.
	ThrottleBytes int
}

// Scenario is one byte-fault recipe. The zero value injects nothing (the
// "clean" control cell of the matrix). All byte offsets count bytes of
// the real stream, excluding injected prefixes.
type Scenario struct {
	Name string

	// Write-side faults: mangle what the wrapped endpoint sends.

	// WriteFragment splits every Write into segments of at most this many
	// bytes, each delivered to the underlying conn as its own Write — on
	// a pipe or a no-delay socket this forces the peer to reassemble TLS
	// records from arbitrary read boundaries.
	WriteFragment int
	// WriteCoalesce buffers writes and flushes them in one underlying
	// Write at the next Read (a sender cannot await a reply without
	// flushing) or at Close — the Nagle-style batching that merges whole
	// flights into one segment.
	WriteCoalesce bool
	// WriteDup sends every segment twice.
	WriteDup bool
	// WriteSwap swaps each pair of adjacent segments within one Write
	// (meaningful only with WriteFragment), reordering the byte stream.
	WriteSwap bool
	// WriteStallAt stalls the connection for StallFor once this many
	// bytes have been written (slowloris: open, send a little, go quiet).
	// The stall respects deadlines and Close.
	WriteStallAt int
	StallFor     time.Duration

	// Read-side faults: mangle what the wrapped endpoint receives.

	// ReadFragment caps every Read at this many bytes.
	ReadFragment int
	// ReadDelay sleeps before every Read (respecting deadlines/Close).
	ReadDelay time.Duration
	// TruncateReadAt ends the stream with a clean EOF after this many
	// bytes have been read, and closes the underlying conn. 0 = never.
	TruncateReadAt int
	// ResetReadAt fails the stream with ErrInjectedReset after this many
	// bytes have been read, and closes the underlying conn. 0 = never.
	ResetReadAt int
	// CorruptReadEvery XORs one byte with the conn's seeded mask every
	// this many bytes read. 0 = never.
	CorruptReadEvery int
	// GarbagePrefix delivers this many seeded garbage bytes before the
	// first real byte.
	GarbagePrefix int
	// AlertPrefix delivers a fatal TLS handshake_failure alert record
	// before the first real byte — the spurious alert a confused
	// middlebox emits.
	AlertPrefix bool
}

// Scenarios returns the built-in fault grid: one scenario per fault
// family, tuned so a few-KB TLS flight meets every fault mid-flight.
// TestFaultMatrix drives this exact grid through both planes.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "clean"},
		{Name: "truncate", TruncateReadAt: 600},
		{Name: "reset", ResetReadAt: 600},
		{Name: "fragment", WriteFragment: 3, ReadFragment: 7},
		{Name: "coalesce", WriteCoalesce: true},
		{Name: "slow", ReadDelay: 2 * time.Millisecond, ReadFragment: 512},
		{Name: "slowloris", WriteStallAt: 20, StallFor: 30 * time.Second},
		{Name: "corrupt", CorruptReadEvery: 64},
		{Name: "garbage", GarbagePrefix: 16},
		{Name: "alert", AlertPrefix: true},
		{Name: "duplicate", WriteFragment: 64, WriteDup: true},
		{Name: "reorder", WriteFragment: 16, WriteSwap: true},
	}
}

// Parse reads the fault language into a plan. DESIGN.md §9 holds the
// grammar; in short, phases are separated by ';' and options by ','. An
// option "fault=F:T[:arg]" opens a rule on link F→T, "seed=", "name=" and
// "for=" set the plan seed and the phase's name and duration, and any
// other option modifies the rule before it:
//
//	all=*:*, seed=42                        every scenario round-robin, everywhere
//	reset=probe:reportd, reset=1            one scenario with a knob override
//	seed=7, name=cut, for=6s, cut=a:*; name=healed
//	lat=a:b:20ms, jitter=5ms; corrupt=c:b, corrupt=4096, throttle=512
func Parse(spec string) (Plan, error) {
	plan := Plan{Seed: 1}
	for _, phaseSpec := range strings.Split(spec, ";") {
		var ph Phase
		for _, opt := range strings.Split(phaseSpec, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			key, val, hasVal := strings.Cut(opt, "=")
			var err error
			switch {
			case key == "seed":
				plan.Seed, err = strconv.ParseUint(val, 10, 64)
			case key == "name":
				ph.Name = val
			case key == "for":
				ph.For, err = parseDuration(val)
			case strings.Contains(val, ":"):
				var r Rule
				r, err = parseRule(key, val)
				ph.Rules = append(ph.Rules, r)
			case len(ph.Rules) == 0:
				err = errors.New("no rule before it to modify")
			default:
				err = modify(&ph.Rules[len(ph.Rules)-1], key, val, hasVal)
			}
			if err != nil {
				return Plan{}, fmt.Errorf("faultnet: option %q: %w", opt, err)
			}
		}
		plan.Phases = append(plan.Phases, ph)
	}
	return plan, nil
}

// parseRule opens a rule from "fault=F:T[:arg]": a scenario name or
// "all" (no argument), or a link fault.
func parseRule(key, val string) (Rule, error) {
	parts := strings.SplitN(val, ":", 3)
	if parts[0] == "" || parts[1] == "" {
		return Rule{}, errors.New("want FROM:TO")
	}
	r := Rule{From: parts[0], To: parts[1]}
	arg, hasArg := "", len(parts) == 3
	if hasArg {
		arg = parts[2]
	}
	if key == "all" {
		r.Scenarios = Scenarios()
	} else if sc, ok := scenarioByName(key); ok {
		r.Scenarios = []Scenario{sc}
	} else {
		return r, modify(&r, key, arg, hasArg)
	}
	if hasArg {
		return r, errors.New("a scenario takes no argument")
	}
	return r, nil
}

// modify applies one link fault or scenario knob to r. A knob on a rule
// without a scenario gives it a clean one to override.
func modify(r *Rule, key, val string, hasVal bool) error {
	var err error
	ls := &r.Link
	switch key {
	case "cut", "cutrecv", "blackhole":
		if hasVal {
			return errors.New("takes no value")
		}
		ls.Cut = ls.Cut || key != "cutrecv"
		ls.CutRecv = ls.CutRecv || key == "cutrecv"
		ls.Blackhole = ls.Blackhole || key == "blackhole"
	case "lat":
		ls.Latency, err = parseDuration(val)
	case "jitter":
		ls.LatencyJitter, err = parseDuration(val)
	case "throttle":
		if ls.ThrottleBytes, err = strconv.Atoi(val); err == nil && ls.ThrottleBytes <= 0 {
			err = errors.New("want a positive byte count")
		}
	default:
		if len(r.Scenarios) == 0 {
			r.Scenarios = []Scenario{{Name: "clean"}}
		}
		for i := range r.Scenarios {
			if err = setKnob(&r.Scenarios[i], key, val, hasVal); err != nil {
				break
			}
		}
	}
	return err
}

// setKnob overrides one scenario field.
func setKnob(sc *Scenario, key, val string, hasVal bool) error {
	count := func(n *int) (err error) {
		if *n, err = strconv.Atoi(val); err == nil && *n < 0 {
			err = errors.New("want a non-negative count")
		}
		return err
	}
	duration := func(d *time.Duration) (err error) {
		*d, err = parseDuration(val)
		return err
	}
	flag := func(b *bool) error {
		if hasVal {
			return errors.New("takes no value")
		}
		*b = true
		return nil
	}
	switch key {
	case "truncate":
		return count(&sc.TruncateReadAt)
	case "reset":
		return count(&sc.ResetReadAt)
	case "rfrag":
		return count(&sc.ReadFragment)
	case "wfrag":
		return count(&sc.WriteFragment)
	case "corrupt":
		return count(&sc.CorruptReadEvery)
	case "garbage":
		if err := count(&sc.GarbagePrefix); err != nil || sc.GarbagePrefix <= maxGarbage {
			return err
		}
		return fmt.Errorf("want at most %d bytes", maxGarbage)
	case "stallat":
		return count(&sc.WriteStallAt)
	case "delay":
		return duration(&sc.ReadDelay)
	case "stallfor":
		return duration(&sc.StallFor)
	case "coalesce":
		return flag(&sc.WriteCoalesce)
	case "dup":
		return flag(&sc.WriteDup)
	case "swap":
		return flag(&sc.WriteSwap)
	case "alert":
		return flag(&sc.AlertPrefix)
	}
	return errors.New("unknown fault")
}

// maxGarbage bounds the garbage prefix, which every wrapped connection
// allocates.
const maxGarbage = 1 << 20

func parseDuration(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err == nil && d < 0 {
		err = errors.New("negative duration")
	}
	return d, err
}

func scenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
