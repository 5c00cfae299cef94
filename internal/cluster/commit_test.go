package cluster

// The commit path's concurrency contract: the replica wait sits outside
// the shard lock, Kill still waits out every in-flight batch, the
// follower's long poll wakes on the commit itself, and a follower from
// another incarnation of the log cannot publish a watermark.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/durable"
	"tlsfof/internal/store"
	"tlsfof/internal/telemetry"
)

// openLonely opens node a of an a+b cluster whose b never comes up: a's
// batches have a replica to wait for and nobody to confirm them.
func openLonely(t testing.TB, tweak func(*Config)) (*Node, *telemetry.Registry, string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := Config{
		ID:      "a",
		Members: []Member{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b", URL: "http://127.0.0.1:2"}},
		DataDir: t.TempDir(), Shards: 2, Registry: reg,
	}
	tweak(&cfg)
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, reg, cfg.DataDir
}

// waitMetric polls a counter until it reaches want.
func waitMetric(t testing.TB, reg *telemetry.Registry, name string, want float64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); metricValue(t, reg, name) < want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v", name, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestTailAheadDoesNotAdvanceWatermark: a follower asking for a seq the
// source never wrote is a replica of some other log. Its position must
// not become the watermark — every later batch would ack "replicated"
// without a byte having been copied.
func TestTailAheadDoesNotAdvanceWatermark(t *testing.T) {
	n, reg, _ := openLonely(t, func(c *Config) { c.Shards = 1; c.AckTimeout = 20 * time.Millisecond })
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/repl/tail?shard=0&from=99")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("tail from seq 99 of an empty log: HTTP %d, want 409", resp.StatusCode)
	}
	if wm := n.Status().Watermark[0]; wm != 0 {
		t.Fatalf("refused follower moved the watermark to %d", wm)
	}
	if err := n.IngestBatch(testMeasurements(8, 3)); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, reg, "repl_ack_timeouts_total"); got != 1 {
		t.Fatalf("batch after the refused poll counted %v ack timeouts, want 1 (nothing was replicated)", got)
	}
}

// TestKillWaitsOutBatchInReplicaWait: with the replica wait outside the
// shard lock, Kill's in-flight barrier is what keeps "an acked batch was
// fsynced, an unacked batch never touched the WAL" true. Kill arrives
// while one batch is parked in its wait and more producers keep pushing:
// it must not return before the parked batch has finished its wait and
// been answered, nothing may succeed after it, and the WAL must hold
// exactly the batches that returned nil.
func TestKillWaitsOutBatchInReplicaWait(t *testing.T) {
	const ackTimeout = 250 * time.Millisecond
	n, reg, dir := openLonely(t, func(c *Config) { c.AckTimeout = ackTimeout })

	var mu sync.Mutex
	var acked [][]core.Measurement
	push := func(seed uint64) error {
		batch := testMeasurements(30, seed)
		err := n.IngestBatch(batch)
		if err == nil {
			mu.Lock()
			acked = append(acked, batch)
			mu.Unlock()
		}
		return err
	}

	start := time.Now()
	parked := make(chan error, 1)
	go func() { parked <- push(1) }()
	waitMetric(t, reg, "repl_ack_waits_total", 1)

	// Producers that keep committing behind the parked batch until the
	// node refuses them.
	var producers sync.WaitGroup
	for p := 0; p < 3; p++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; ; i++ {
				if err := push(uint64(100*(p+1) + i)); err != nil {
					if err != ErrNodeKilled {
						t.Errorf("producer %d: %v", p, err)
					}
					return
				}
			}
		}()
	}

	n.Kill()
	// The parked batch began its wait after start and nothing confirms
	// it: it is answered no sooner than start+ackTimeout, and Kill returns
	// no sooner than that.
	if waited := time.Since(start); waited < ackTimeout {
		t.Fatalf("Kill returned %v after the batch started; its %v replica wait was still running", waited, ackTimeout)
	}
	if metricValue(t, reg, "repl_ack_timeouts_total") == 0 {
		t.Fatal("Kill returned before the parked batch's degraded ack was counted")
	}
	if err := <-parked; err != nil {
		t.Fatalf("batch in flight when Kill arrived returned %v, want nil", err)
	}
	if err := n.IngestBatch(testMeasurements(5, 9)); err != ErrNodeKilled {
		t.Fatalf("IngestBatch after Kill returned %v", err)
	}
	producers.Wait()

	control := store.New(0)
	for _, b := range acked {
		for _, m := range b {
			control.Ingest(m)
		}
	}
	var dbs []*store.DB
	for i := 0; i < 2; i++ {
		db, info, err := durable.Recover(durable.Options{Dir: durable.ShardDir(filepath.Join(dir, "own"), i)})
		if err != nil || info.DroppedTail {
			t.Fatalf("shard %d: %+v, %v", i, info, err)
		}
		dbs = append(dbs, db)
	}
	if !bytes.Equal(canonSnapshot(dbs...), canonSnapshot(control)) {
		t.Fatalf("WAL after Kill differs from the %d batches that returned nil", len(acked))
	}
}

// tailPoll runs one /repl/tail request and returns the frames it carried.
func tailPoll(url string, from uint64) (frames, status int, err error) {
	resp, err := http.Get(fmt.Sprintf("%s/repl/tail?shard=0&from=%d", url, from))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, resp.StatusCode, nil
	}
	dec := durable.NewReplDecoder(resp.Body)
	for {
		if _, err := dec.Next(); err == io.EOF {
			return frames, resp.StatusCode, nil
		} else if err != nil {
			return frames, resp.StatusCode, err
		}
		frames++
	}
}

// TestTailLongPollWakesOnCommit: a parked /repl/tail answers because a
// commit landed, not because a timer fired — within 50 ms of the commit
// under a 5 s LongPoll, round after round (one lost wake parks a round
// for the full 5 s) — and answers 503 promptly when the node closes.
func TestTailLongPollWakesOnCommit(t *testing.T) {
	n, reg, _ := openLonely(t, func(c *Config) { c.Shards = 1; c.AckTimeout = -1; c.LongPoll = 5 * time.Second })
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	type answer struct {
		frames, status int
		err            error
		at             time.Time
	}
	park := func(from uint64, polls float64) chan answer {
		ch := make(chan answer, 1)
		go func() {
			frames, status, err := tailPoll(srv.URL, from)
			ch <- answer{frames, status, err, time.Now()}
		}()
		waitMetric(t, reg, "repl_tail_polls_total", polls)
		return ch
	}

	from := uint64(1)
	for round := 1; round <= 25; round++ {
		ch := park(from, float64(round))
		batch := testMeasurements(1+round%7, uint64(round))
		if err := n.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		committed := time.Now()
		a := <-ch
		if a.err != nil || a.status != http.StatusOK || a.frames != len(batch) {
			t.Fatalf("round %d: poll from %d answered HTTP %d with %d of %d frames: %v", round, from, a.status, a.frames, len(batch), a.err)
		}
		if late := a.at.Sub(committed); late > 50*time.Millisecond {
			t.Fatalf("round %d: parked poll answered %v after the commit", round, late)
		}
		from += uint64(len(batch))
	}

	ch := park(from, 26)
	closing := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil || a.status != http.StatusServiceUnavailable {
		t.Fatalf("poll parked across Close answered HTTP %d: %v", a.status, a.err)
	}
	if late := a.at.Sub(closing); late > time.Second {
		t.Fatalf("poll parked across Close answered after %v", late)
	}
}

// TestTailCancelledPollFreesHandler: a follower that abandons a parked
// poll — its node stopping, its own deadline — frees the source's
// handler at once, not when the 5 s LongPoll lapses.
func TestTailCancelledPollFreesHandler(t *testing.T) {
	n, reg, _ := openLonely(t, func(c *Config) { c.Shards = 1; c.AckTimeout = -1; c.LongPoll = 5 * time.Second })
	h := n.Handler()
	returned := make(chan time.Time, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- time.Now()
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/repl/tail?shard=0&from=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitMetric(t, reg, "repl_tail_polls_total", 1)
	cancelled := time.Now()
	cancel()
	select {
	case at := <-returned:
		if late := at.Sub(cancelled); late > time.Second {
			t.Fatalf("handler returned %v after its follower cancelled", late)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("handler still parked 4s after its follower cancelled the poll")
	}
}

// clusterGoroutines counts goroutines currently inside a Node, follower
// or seqSignal method.
func clusterGoroutines() int {
	count := 0
	for _, g := range strings.Split(allStacks(), "\n\n") {
		if strings.Contains(g, "internal/cluster.(*") {
			count++
		}
	}
	return count
}

// TestKillLeaksNoGoroutine: Kill releases everything parked on the node
// — long polls, replica waits, followers — without waiting for LongPoll
// or AckTimeout to lapse on their own.
func TestKillLeaksNoGoroutine(t *testing.T) {
	before := clusterGoroutines()
	tc := startTestCluster(t, []string{"a", "b"}, func(c *Config) { c.LongPoll = 5 * time.Second })
	rc := tc.route(16)
	for _, m := range testMeasurements(64, 5) {
		rc.Ingest(m)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	if clusterGoroutines() <= before {
		t.Fatal("a running cluster shows no goroutine to leak; the count is blind")
	}

	// Both at once: each node's followers are parked in the other's long
	// poll (one node alone is TestKillOneNodeDoesNotWaitOutPeerLongPoll).
	killed := time.Now()
	var kills sync.WaitGroup
	for _, n := range tc.nodes {
		kills.Add(1)
		go func() {
			defer kills.Done()
			n.Kill()
		}()
	}
	kills.Wait()
	if took := time.Since(killed); took > 2*time.Second {
		t.Fatalf("Kill took %v: something waited for the 5s long poll to lapse", took)
	}
	for deadline := killed.Add(4 * time.Second); clusterGoroutines() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d cluster goroutines survive Kill:\n%s", clusterGoroutines()-before, allStacks())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillOneNodeDoesNotWaitOutPeerLongPoll: stopping one node while its
// peer lives cancels the follower polls parked on that peer instead of
// waiting for the peer's LongPoll to answer them, and what the replica
// had applied is still recoverable afterwards.
func TestKillOneNodeDoesNotWaitOutPeerLongPoll(t *testing.T) {
	stops := map[string]func(*Node){
		"kill":  func(n *Node) { n.Kill() },
		"close": func(n *Node) { n.Close() },
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			tc := startTestCluster(t, []string{"a", "b"}, func(c *Config) { c.LongPoll = 5 * time.Second })
			rc := tc.route(16)
			for _, m := range testMeasurements(64, 5) {
				rc.Ingest(m)
			}
			if err := rc.Flush(); err != nil {
				t.Fatal(err)
			}
			a, b := tc.nodes["a"], tc.nodes["b"]
			time.Sleep(50 * time.Millisecond) // a's followers are parked on b again

			t0 := time.Now()
			stop(a)
			if took := time.Since(t0); took > time.Second {
				t.Fatalf("%s took %v with the peer alive: a follower waited out the 5s long poll", name, took)
			}
			// Every batch was acked by the replica, so a's copy of b is whole.
			a.Members().MarkDead("b")
			rec, err := a.RecoverReplica("b")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rec.Totals(), b.MergeLocal().Totals(); got != want || want.Tested == 0 {
				t.Fatalf("replica of b recovered %+v, b holds %+v", got, want)
			}
		})
	}
}

// BenchmarkIngestBatchReplicated is the replication-ack hop on its own:
// one 512-measurement batch over 4 shards of a node whose successor
// tails it over loopback HTTP, committed, replicated and acked.
func BenchmarkIngestBatchReplicated(b *testing.B) {
	tc := startTestCluster(b, []string{"a", "b"}, func(c *Config) {
		c.Shards, c.SegmentBytes = 4, 0
		c.PollInterval, c.LongPoll = 0, 0 // reportd's defaults
		c.Logf = nil
	})
	a := tc.nodes["a"]
	batch := testMeasurements(512, 1)
	if err := a.IngestBatch(batch); err != nil { // followers connected, cursors placed
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.IngestBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/batch")
	if n := metricValue(b, tc.registries["a"], "repl_ack_timeouts_total"); n != 0 {
		b.Fatalf("%v batches acked without their replica", n)
	}
}
