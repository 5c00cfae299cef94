package faultnet

import (
	"net"
	"sync"
	"testing"
	"time"
)

// nopConn is the cheapest possible net.Conn: a wrap only needs something
// to hold, and this test never moves bytes through the wrapper.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return 0, nil }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// TestStatsSnapshotInvariants scrapes Injector.Stats while goroutines
// wrap connections, asserting the causal invariants hold in every
// snapshot: admission bumps Conns before wrap bumps Alerts/GarbageBytes,
// and the snapshot loads Conns last, so no snapshot may show more alert
// prefixes than connections. Under -race this also proves scraping is
// race-free against wrapping. The old load order (Conns first) fails
// this under load.
func TestStatsSnapshotInvariants(t *testing.T) {
	const garbage = 16
	in := mustInjector(t, "alert=*:*, garbage=16, seed=7")
	dial := in.Dialer("a", func(string) (net.Conn, error) { return nopConn{}, nil })

	// Workers do a fixed amount of wrapping; the scraper runs until they
	// finish so the overlap is guaranteed even on one CPU (a time-boxed
	// scrape loop can complete before any worker is scheduled).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				dial("b")
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for i := 0; ; i++ {
		st := in.Stats()["a:b"]
		if st.Alerts > st.Conns {
			t.Fatalf("snapshot %d: Alerts (%d) > Conns (%d)", i, st.Alerts, st.Conns)
		}
		if st.GarbageBytes > st.Conns*garbage {
			t.Fatalf("snapshot %d: GarbageBytes (%d) > Conns*%d (%d)",
				i, st.GarbageBytes, garbage, st.Conns*garbage)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	st := in.Stats()["a:b"]
	if st.Conns == 0 || st.Alerts != st.Conns || st.GarbageBytes != st.Conns*garbage {
		t.Fatalf("quiescent accounting wrong: %+v", st)
	}
}
