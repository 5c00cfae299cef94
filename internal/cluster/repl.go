package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
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
	log      *durable.Log
	done     chan struct{}
	// dec is reset onto each poll's response body, keeping its read
	// buffers; only run's goroutine touches it.
	dec *durable.ReplDecoder
}

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
				f.n.self.ID, f.source, f.shardIdx, f.log.NextSeq()-1)
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
		f.log.Sync()
	}
}

// pollOnce runs one tail request and applies its frames. It returns how
// many it applied; the replica log is synced before returning so the
// next poll's from is an honest promise.
func (f *follower) pollOnce(baseURL string) (applied int, err error) {
	url := fmt.Sprintf("%s/repl/tail?shard=%d&from=%d", baseURL, f.shardIdx, f.log.NextSeq())
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
		// The source cannot stream from our position: it is behind us (a
		// wiped or replaced source directory) or compacted past us.
		// Replicating would corrupt the watermark contract, so keep the
		// replica intact and keep complaining.
		f.n.cfg.Logf("cluster %s: follower of %s shard %d: source refused the tail (operator intervention needed)",
			f.n.self.ID, f.source, f.shardIdx)
		return 0, fmt.Errorf("cluster: source refused the tail")
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
		next := f.log.NextSeq()
		switch {
		case rec.Seq < next:
			// overlap from a duplicated poll
		case rec.Seq == next:
			if aerr := f.log.AppendEncoded(rec.Payload); aerr != nil {
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
	f.finishPoll(applied)
	return applied, err
}

// finishPoll syncs whatever this poll appended and counts it.
func (f *follower) finishPoll(applied int) {
	if applied > 0 {
		f.log.Sync()
		f.n.met.catchupPolls.Inc()
	}
}
