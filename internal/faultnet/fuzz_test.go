package faultnet

import (
	"errors"
	"net"
	"testing"

	"tlsfof/internal/telemetry"
)

// FuzzParseFaultSpec fuzzes the one fault parser, which reads flags from
// outside the program: it must never panic, and every spec it accepts
// must build an injector that wraps a connection on every phase and
// exports its stats. The seeds are the specs of the tests, the docs and
// the CI workflow.
func FuzzParseFaultSpec(f *testing.F) {
	for _, spec := range []string{
		// CI chaos smoke and cmd/reportd's tests.
		"seed=7, name=cut, for=6s, cut=a:*; name=healed",
		"name=slow, lat=fleetctl:a:200ms",
		"seed=7, name=calm; name=healed",
		// The docs and the flag help strings.
		"all=*:*, seed=42",
		"all=*:mitmd, seed=42",
		"fragment=*:*, seed=7",
		"reset=probe:reportd, reset=1",
		"clean=*:*, truncate=128, stallfor=5s",
		"for=2s;cut=fleetctl:b,for=3s;",
		"seed=7; name=cut, for=10s, cut=a:b, lat=a:c:20ms",
		"lat=a:b:20ms, jitter=5ms; corrupt=c:b, corrupt=4096, throttle=512",
		"reset=probe:reportd, reset=1, fragment=probe:*",
		"seed=7, reset=probe:reportd, reset=1, fragment=probe:*, for=5s; fragment=probe:*",
		"lat=a:b:20ms, jitter=5ms, reset=4096",
		"truncate=c:b, truncate=100000",
		// The faultnet, fault-matrix and chaos-matrix tests.
		"seed=42,for=2s;cut=b:*,name=partition,for=3s;lat=a:b:50ms,throttle=c:b:1024;name=healed",
		"blackhole=a:b; cutrecv=a:b, lat=1ms",
		"clean=*:*, truncate=128, wfrag=2, delay=3ms, dup",
		"lat=a:b:5ms, reset=1",
		"alert=*:*, garbage=16, seed=7",
		"duplicate=*:*, wfrag=4",
		"reorder=*:*, wfrag=2",
		"slowloris=*:*, stallat=2",
		"seed=9, name=cut-all, lat=client:c:0s, cut=client:*",
		"seed=11, name=clean; name=partition, cut=client:b; name=healed",
		"seed=12, name=clean; name=oneway, cutrecv=client:b; name=healed",
		"seed=13, name=clean; name=slow, lat=client:b:20ms, lat=fleetctl:b:20ms; name=healed",
		"seed=16, name=damaged, truncate=c:b, truncate=100000; name=healed",
		"seed=15, name=clean; name=flap-1, cut=client:c; name=gap; name=flap-2, cut=client:c; name=healed",
		"seed=11, reset=client:*, reset=1; name=clean",
		"name=p0, for=20ms; name=p1, for=20ms; name=p2",
		// Rejected shapes.
		"cut=b", "bogus=1", "lat=a:b:xx", "for=-1s", "throttle=a:b:0", "cut", "nope", "clean=*:*,dup=1", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := Parse(spec)
		if err != nil {
			return
		}
		in := New(plan)
		dial := in.Dialer("a", func(string) (net.Conn, error) {
			c, _ := net.Pipe()
			return c, nil
		})
		for range plan.Phases {
			if conn, err := dial("b"); err == nil {
				conn.Close()
			} else if !errors.Is(err, errLinkCut) {
				t.Fatalf("spec %q: dial: %v", spec, err)
			}
			in.Advance()
		}
		if st := in.Stats()["a:b"]; st.Conns != uint64(len(plan.Phases)) {
			t.Fatalf("spec %q: %d phases, stats %+v", spec, len(plan.Phases), st)
		}
		in.MountMetrics(telemetry.NewRegistry())
	})
}
