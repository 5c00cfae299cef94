package cluster

// A cluster node checkpoints behind its replica: an own shard never
// folds a seq its live follower has not confirmed, so the follower is
// never refused its resume point, and a replica that compacted in full
// still rebuilds its dead source.

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tlsfof/internal/core"
	"tlsfof/internal/store"
)

// tailGate is a follower's transport that can hold its /repl/tail polls
// at the door, and counts every 409 a source answered one with.
type tailGate struct {
	held    atomic.Pointer[chan struct{}] // non-nil: polls wait for it to close
	refused atomic.Int64
}

func (g *tailGate) hold() {
	ch := make(chan struct{})
	g.held.Store(&ch)
}

func (g *tailGate) release() {
	if ch := g.held.Swap(nil); ch != nil {
		close(*ch)
	}
}

func (g *tailGate) RoundTrip(req *http.Request) (*http.Response, error) {
	tail := strings.HasPrefix(req.URL.Path, "/repl/tail")
	if ch := g.held.Load(); tail && ch != nil {
		select {
		case <-*ch:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && tail && resp.StatusCode == http.StatusConflict {
		g.refused.Add(1)
	}
	return resp, err
}

// TestCheckpointStaysBehindReplica: b follows a. With b's polls held at
// a's watermark k, a's checkpoint folds nothing at or past k, and a tail
// from k still answers 200 — also when a's own view has marked b dead
// meanwhile (a dead mark is local; b is still tailing). Once b catches
// up, a second checkpoint folds every frame. b checkpoints its replica of
// a in full, and after a dies that replica still rebuilds a's shards: the
// cluster's merge equals the sequential control. No poll of b's is ever
// refused.
func TestCheckpointStaysBehindReplica(t *testing.T) {
	t.Run("live", func(t *testing.T) { checkpointBehindReplica(t, false) })
	t.Run("marked-dead", func(t *testing.T) { checkpointBehindReplica(t, true) })
}

func checkpointBehindReplica(t *testing.T, deadInView bool) {
	gate := &tailGate{}
	tc := startTestCluster(t, []string{"a", "b"}, func(c *Config) {
		c.AckTimeout = 50 * time.Millisecond
		if c.ID == "b" {
			c.HTTPClient = &http.Client{Transport: gate}
		}
	})
	defer gate.release()
	a, b := tc.nodes["a"], tc.nodes["b"]
	ms := testMeasurements(600, 11)
	ingest := func(ms []core.Measurement) {
		t.Helper()
		rc := tc.route(16)
		for _, m := range ms {
			rc.Ingest(m)
		}
		if err := rc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	caughtUp := func() bool {
		st := a.Status()
		for i := range st.LastSeq {
			if st.Watermark[i] != st.LastSeq[i]+1 {
				return false
			}
		}
		return true
	}

	ingest(ms[:300])
	for deadline := time.Now().Add(10 * time.Second); !caughtUp(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("b never caught up with a: %+v", a.Status())
		}
	}
	gate.hold()
	ingest(ms[300:])
	if deadInView {
		tc.post("a", "/cluster/dead?node=b")
	}
	k := a.Status().Watermark
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	folded := false
	for i, sh := range a.Shards() {
		snap := sh.Log.Stats().SnapshotSeq
		if snap >= k[i] {
			t.Fatalf("shard %d: checkpoint folded through seq %d, past the watermark %d", i, snap, k[i])
		}
		folded = folded || snap > 0
		if _, status := tc.get("a", fmt.Sprintf("/repl/tail?shard=%d&from=%d", i, k[i])); status != http.StatusOK {
			t.Fatalf("shard %d: tail from the watermark %d after a checkpoint: HTTP %d, want 200", i, k[i], status)
		}
	}
	if !folded {
		t.Fatal("the first checkpoint folded nothing below the watermark")
	}

	gate.release()
	for deadline := time.Now().Add(10 * time.Second); !caughtUp(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("b never caught up after the release: %+v", a.Status())
		}
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	for i, sh := range a.Shards() {
		if snap := sh.Log.Stats().SnapshotSeq; snap != st.LastSeq[i] {
			t.Fatalf("shard %d: second checkpoint covers seq %d, want every frame through %d", i, snap, st.LastSeq[i])
		}
	}
	if n := gate.refused.Load(); n != 0 {
		t.Fatalf("a refused %d of b's tail polls", n)
	}

	a.Kill()
	tc.post("b", "/cluster/dead?node=a")
	recovered, err := b.RecoverReplica("a")
	if err != nil {
		t.Fatal(err)
	}
	control := store.New(0)
	for _, m := range ms {
		control.Ingest(m)
	}
	if got, want := canonSnapshot(b.MergeLocal(), recovered), canonSnapshot(control); !bytes.Equal(got, want) {
		t.Fatalf("merge over a compacted replica differs from the sequential control (%d vs %d bytes)", len(got), len(want))
	}
}
