package tlsfof

// TestFaultMatrix is the hostile-wire robustness gate: the full
// fault-scenario grid (internal/faultnet.Scenarios — truncation, resets,
// fragmentation, coalescing, latency, slowloris stalls, corruption,
// duplication, reordering, garbage, and spurious alerts) driven through
// both measurement planes — the raw probe plane over real loopback TCP
// and the interceptor plane over in-memory pipes. Every probe must
// terminate with a classified outcome (clean capture, explicit error, or
// timeout), never a hang; stream-preserving faults must still capture;
// and replaying a seed must reproduce the identical fault schedule.

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"tlsfof/internal/faultnet"
	"tlsfof/internal/proxyengine"
	"tlsfof/internal/tlswire"
)

const (
	fmSeed         = 0xFA17
	fmProbesPerCel = 2
	fmProbeTimeout = 500 * time.Millisecond
	fmWatchdog     = 15 * time.Second
)

// fmOutcome classifies how one probe ended.
type fmOutcome int

const (
	fmCapture fmOutcome = iota
	fmError
	fmTimeout
)

func (o fmOutcome) String() string {
	switch o {
	case fmCapture:
		return "capture"
	case fmError:
		return "error"
	case fmTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("fmOutcome(%d)", int(o))
	}
}

func classifyProbe(err error) fmOutcome {
	if err == nil {
		return fmCapture
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmTimeout
	}
	return fmError
}

// fmResult is one full matrix run: per-cell outcomes and the derived
// fault schedules, keyed "plane/scenario".
type fmResult struct {
	outcomes  map[string][]fmOutcome
	schedules map[string][]faultnet.ConnSchedule
}

// fmProbe runs one watchdogged probe over conn and classifies it.
func fmProbe(t *testing.T, cell string, conn net.Conn, host string) fmOutcome {
	t.Helper()
	type res struct{ err error }
	ch := make(chan res, 1)
	go func() {
		_, err := tlswire.Probe(conn, tlswire.ProbeOptions{ServerName: host, Timeout: fmProbeTimeout})
		ch <- res{err}
	}()
	select {
	case r := <-ch:
		return classifyProbe(r.err)
	case <-time.After(fmWatchdog):
		t.Fatalf("%s: probe HUNG — no outcome within %v", cell, fmWatchdog)
		return fmError
	}
}

// runFaultMatrix executes the whole grid once from one seed.
func runFaultMatrix(t *testing.T, seed uint64) fmResult {
	t.Helper()
	const host = "fault.matrix.test"
	world := newLWWorld(t, []string{host})
	out := fmResult{
		outcomes:  make(map[string][]fmOutcome),
		schedules: make(map[string][]faultnet.ConnSchedule),
	}

	// — Plane 1: raw probe over real loopback TCP. —
	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { upstreamLn.Close() })
	go tlswire.Server(upstreamLn, tlswire.ResponderConfig{
		Chain:   tlswire.StaticChain(world.chains[host]),
		Timeout: 5 * time.Second,
	}, nil)
	tcp := func(string) (net.Conn, error) { return net.Dial("tcp", upstreamLn.Addr().String()) }
	for _, sc := range faultnet.Scenarios() {
		cell := "probe/" + sc.Name
		faults := fmInjector(t, sc.Name, seed)
		dial := faults.Dialer("probe", tcp)
		for i := 0; i < fmProbesPerCel; i++ {
			conn, err := dial(host)
			if err != nil {
				t.Fatalf("%s: dial: %v", cell, err)
			}
			out.outcomes[cell] = append(out.outcomes[cell], fmProbe(t, cell, conn, host))
			conn.Close()
		}
		out.schedules[cell] = faults.Schedule()
	}

	// — Plane 2: forging interceptor over in-memory pipes. —
	network := faultnet.NewNetwork()
	chain := world.chains[host]
	network.Listen(host, func(conn net.Conn) {
		defer conn.Close()
		tlswire.Respond(conn, tlswire.ResponderConfig{
			Chain:   tlswire.StaticChain(chain),
			Timeout: 5 * time.Second,
		})
	})
	engine, err := proxyengine.New(
		proxyengine.Profile{ProductName: "FaultMatrix", IssuerOrg: "FaultMatrix", KeyBits: 1024},
		proxyengine.Options{},
	)
	if err != nil {
		t.Fatal(err)
	}
	ic := proxyengine.NewInterceptor(engine, network.Dial)
	ic.Timeout = 5 * time.Second
	// The interceptor's own slowloris defense: without it the stall and
	// reorder cells park handler goroutines on half-read ClientHellos.
	ic.ClientTimeout = 2 * time.Second
	tapped := faultnet.Intercepted(func(conn net.Conn) {
		defer conn.Close()
		ic.HandleConn(conn)
	})
	for _, sc := range faultnet.Scenarios() {
		cell := "proxy/" + sc.Name
		faults := fmInjector(t, sc.Name, seed)
		dial := faults.Dialer("probe", tapped)
		for i := 0; i < fmProbesPerCel; i++ {
			conn, err := dial(host)
			if err != nil {
				t.Fatalf("%s: dial: %v", cell, err)
			}
			out.outcomes[cell] = append(out.outcomes[cell], fmProbe(t, cell, conn, host))
			conn.Close()
		}
		out.schedules[cell] = faults.Schedule()
	}
	return out
}

// fmInjector builds one cell's injector from its spec: the scenario on
// every link, at the matrix seed.
func fmInjector(t *testing.T, scenario string, seed uint64) *faultnet.Injector {
	t.Helper()
	plan, err := faultnet.Parse(fmt.Sprintf("%s=*:*, seed=%d", scenario, seed))
	if err != nil {
		t.Fatal(err)
	}
	return faultnet.New(plan)
}

func TestFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("fault matrix skipped in -short mode")
	}
	run := runFaultMatrix(t, fmSeed)

	// Expected outcome classes per scenario. Stream-preserving faults
	// must still capture on both planes — that is the hardening claim:
	// fragmentation, coalescing, and latency are facts of real networks,
	// not failures. Destructive faults must surface as explicit errors
	// (or, for stalls, the probe's own timeout) — never as hangs and
	// never as silent captures of a damaged flight.
	mustCapture := map[string]bool{"clean": true, "fragment": true, "coalesce": true, "slow": true}
	mustClass := map[string]fmOutcome{
		"truncate": fmError,
		"reset":    fmError,
		"alert":    fmError,
		"garbage":  fmError,
	}
	for cell, outcomes := range run.outcomes {
		if len(outcomes) != fmProbesPerCel {
			t.Errorf("%s: %d outcomes, want %d", cell, len(outcomes), fmProbesPerCel)
		}
		name := cell[strings.IndexByte(cell, '/')+1:]
		for i, oc := range outcomes {
			switch {
			case mustCapture[name] && oc != fmCapture:
				t.Errorf("%s probe %d: outcome %v, want capture (stream-preserving fault)", cell, i, oc)
			case name == "slowloris" && oc != fmTimeout && oc != fmError:
				t.Errorf("%s probe %d: outcome %v, want timeout/error", cell, i, oc)
			case mustClass[name] == fmError && name != "slowloris" && !mustCapture[name]:
				if oc == fmCapture {
					t.Errorf("%s probe %d: captured through a destructive fault", cell, i)
				}
			}
		}
	}

	// Fault accounting must show the grid actually fired: the stats are
	// how an operator confirms a -fault run did what the seed says.
	if got := len(run.schedules); got != 2*len(faultnet.Scenarios()) {
		t.Fatalf("matrix covered %d cells, want %d", got, 2*len(faultnet.Scenarios()))
	}

	// Replay: the identical seed must reproduce the identical fault
	// schedule, cell for cell, byte for byte.
	replay := runFaultMatrix(t, fmSeed)
	for cell, sched := range run.schedules {
		if !reflect.DeepEqual(sched, replay.schedules[cell]) {
			t.Errorf("%s: replayed schedule differs:\nfirst:  %+v\nreplay: %+v", cell, sched, replay.schedules[cell])
		}
	}
	// And a different seed must not (the schedule is genuinely derived,
	// not constant).
	other := runFaultMatrix(t, fmSeed+1)
	same := true
	for cell, sched := range run.schedules {
		if !reflect.DeepEqual(sched, other.schedules[cell]) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("schedules identical across different seeds")
	}
}
