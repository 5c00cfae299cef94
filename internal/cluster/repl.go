package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"tlsfof/internal/durable"
)

// follower tails one (source node, shard) WAL into a local replica log.
// It is pull-based and resumable: every poll asks for the replica's own
// durable NextSeq, so a cut connection, a torn stream, or a follower
// restart costs nothing but a re-poll. The source reads that position as
// the replication watermark and releases pending ingest acks against it
// — which is why the follower only advances its position after an
// explicit Sync. A caught-up poll parks on the source until a commit
// wakes it, so the loop is commit → frames → append, fsync → next poll
// (the ack) with no timer in it; PollInterval only paces retries after
// an error or an idle LongPoll.
type follower struct {
	n        *Node
	source   string
	shardIdx int
	dir      string
	// log is behind an atomic pointer because snapshot catch-up replaces
	// it mid-run while Status and Close read it from other goroutines.
	log  atomic.Pointer[durable.Log]
	done chan struct{}
	// dec is reset onto each poll's response body, keeping its read
	// buffers; only run's goroutine touches it.
	dec *durable.ReplDecoder
}

func (f *follower) logRef() *durable.Log { return f.log.Load() }

func (f *follower) run() {
	defer close(f.done)
	for {
		select {
		case <-f.n.ctx.Done():
			f.exitSync()
			return
		default:
		}
		src, ok := f.n.members.Get(f.source)
		if !ok || src.State == Dead {
			// The source is gone; the replica now IS the shard. Seal it.
			f.exitSync()
			f.n.cfg.Logf("cluster %s: follower of %s shard %d stopped (source dead) at seq %d",
				f.n.self.ID, f.source, f.shardIdx, f.logRef().NextSeq()-1)
			return
		}
		applied, err := f.pollOnce(src.URL)
		if f.n.killed.Load() {
			return // SIGKILL semantics: no final sync
		}
		if err != nil || applied == 0 {
			select {
			case <-f.n.ctx.Done():
			case <-time.After(f.n.cfg.PollInterval):
			}
			continue
		}
		// Applied something: poll again immediately so the new durable
		// position reaches the source and releases its pending acks.
	}
}

// exitSync makes the replica's buffered tail durable on a clean stop; a
// killed node skips it (Kill abandons buffers by design).
func (f *follower) exitSync() {
	if !f.n.killed.Load() {
		f.logRef().Sync()
	}
}

// pollOnce runs one tail request and applies its records. It returns
// how many records (frames or snapshots) it applied; the replica log is
// synced before returning so the next poll's from is an honest promise.
func (f *follower) pollOnce(baseURL string) (applied int, err error) {
	url := fmt.Sprintf("%s/repl/tail?shard=%d&from=%d", baseURL, f.shardIdx, f.logRef().NextSeq())
	req, err := http.NewRequestWithContext(f.n.ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.n.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		// The source says we are ahead of it: a wiped or replaced source
		// directory. Replicating would corrupt the watermark contract, so
		// keep the replica intact and keep complaining.
		f.n.cfg.Logf("cluster %s: follower of %s shard %d: source behind replica (operator intervention needed)",
			f.n.self.ID, f.source, f.shardIdx)
		return 0, fmt.Errorf("cluster: source behind replica")
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: tail %s: HTTP %d", url, resp.StatusCode)
	}
	f.dec.Reset(resp.Body)
	for {
		rec, derr := f.dec.Next()
		if errors.Is(derr, io.EOF) {
			break // clean end
		}
		if derr != nil {
			// Torn or corrupt stream: keep the applied prefix, re-poll
			// from our own durable position.
			err = derr
			break
		}
		switch rec.Type {
		case durable.ReplSnapshot:
			if rec.Seq < f.logRef().NextSeq() {
				continue // covers nothing we lack
			}
			if rerr := f.resetTo(rec.Seq, rec.Payload); rerr != nil {
				f.finishPoll(applied)
				return applied, rerr
			}
			f.n.met.snapsApplied.Inc()
			applied++
		case durable.ReplFrame:
			next := f.logRef().NextSeq()
			switch {
			case rec.Seq < next:
				// overlap from a duplicated poll
			case rec.Seq == next:
				if aerr := f.logRef().AppendEncoded(rec.Payload); aerr != nil {
					f.finishPoll(applied)
					return applied, aerr
				}
				f.n.met.framesApplied.Inc()
				applied++
			default:
				// A gap should be impossible on an intact source; re-poll
				// rather than replicate around it.
				f.finishPoll(applied)
				return applied, fmt.Errorf("cluster: tail gap: got seq %d, replica at %d", rec.Seq, next)
			}
		}
	}
	f.finishPoll(applied)
	return applied, err
}

// finishPoll syncs whatever this poll appended and counts it.
func (f *follower) finishPoll(applied int) {
	if applied > 0 {
		f.logRef().Sync()
		f.n.met.catchupPolls.Inc()
	}
}

// resetTo handles snapshot catch-up: the source compacted past our
// position, so the replica directory restarts from the received image.
func (f *follower) resetTo(covered uint64, image []byte) error {
	if err := f.logRef().Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(f.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(f.dir, 0o777); err != nil {
		return err
	}
	if err := durable.WriteSnapshot(f.dir, covered, image); err != nil {
		return err
	}
	log, err := durable.Open(f.n.shardOptions(f.dir))
	if err != nil {
		return err
	}
	f.log.Store(log)
	return nil
}
