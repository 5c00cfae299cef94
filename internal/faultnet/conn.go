package faultnet

import (
	"io"
	"net"
	"sync"
	"time"

	"tlsfof/internal/stats"
)

// stallTimeoutError is returned when a connection deadline expires while
// an injected stall, delay or black hole is pending. It satisfies
// net.Error with Timeout() == true, exactly like an OS-level read timeout.
type stallTimeoutError struct{}

func (stallTimeoutError) Error() string   { return "faultnet: i/o timeout during injected stall" }
func (stallTimeoutError) Timeout() bool   { return true }
func (stallTimeoutError) Temporary() bool { return true }

// spuriousAlert is the wire image of a fatal handshake_failure alert
// record (TLS 1.0 record version, as middleboxes of the era sent).
var spuriousAlert = [7]byte{21, 3, 1, 0, 2, 2, 40}

// throttlePause is the pause before every read of a throttled link.
const throttlePause = time.Millisecond

// forever is a pause that only a deadline or Close ends.
const forever = time.Duration(1<<63 - 1)

// Conn is a connection wrapped by an Injector: the byte scenario fixed at
// wrap time plus the link state, re-read on every operation. Not safe for
// concurrent Read/Read or Write/Write calls (net.Conn's own contract);
// Read and Write may run concurrently except under WriteCoalesce, whose
// flush-on-read handoff serializes on an internal mutex.
type Conn struct {
	net.Conn
	in       *Injector
	from, to string
	st       *Stats
	sc       Scenario

	// rng drives the latency jitter after the schedule's draws.
	rngMu sync.Mutex
	rng   *stats.RNG

	// Read state.
	rdOff   int    // real bytes delivered so far
	pre     []byte // injected prefix (alert + garbage) still to deliver
	mask    byte   // corruption XOR mask, seeded nonzero
	termErr error  // non-nil once a truncate/reset fired; returned by every later Read

	// Write state.
	wrOff   int
	stalled bool // stall already fired

	// pending holds coalesced bytes awaiting flush.
	pendMu  sync.Mutex
	pending []byte

	// Deadline mirror: stalls, delays and black holes must honor
	// deadlines without help from the underlying conn.
	dlMu       sync.Mutex
	rdDeadline time.Time
	wrDeadline time.Time

	closeOnce sync.Once
	done      chan struct{}
}

// pause sleeps for d, returning early with an error when the deadline
// passes first or the conn is closed. A nil return means the full pause
// elapsed.
func (c *Conn) pause(d time.Duration, deadline time.Time) error {
	var timeout error
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < d {
			// Sleep out the deadline, then report the timeout the caller
			// would have hit inside the OS read/write.
			d, timeout = max(until, 0), stallTimeoutError{}
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return timeout
	case <-c.done:
		return net.ErrClosed
	}
}

// hang blocks until the deadline or Close — the black-hole failure mode,
// indistinguishable from packet loss.
func (c *Conn) hang(deadline time.Time) error {
	c.st.add(&c.st.Blackholes, 1)
	return c.pause(forever, deadline)
}

func (c *Conn) readDeadline() time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	return c.rdDeadline
}

func (c *Conn) writeDeadline() time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	return c.wrDeadline
}

// SetDeadline mirrors the deadline for injected pauses and forwards it.
func (c *Conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rdDeadline, c.wrDeadline = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline mirrors and forwards.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rdDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline mirrors and forwards.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.wrDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// Read applies the link state, then the scenario's read-side faults.
func (c *Conn) Read(p []byte) (int, error) {
	// A reader awaiting a reply implies the writer is done with its
	// flight: flush coalesced bytes so hostile batching never deadlocks
	// the exchange (the paper's probes survived Nagle, not black holes).
	if err := c.flushPending(); err != nil {
		return 0, err
	}
	ls := c.in.state(c.from, c.to)
	if ls.Cut || ls.CutRecv {
		c.st.add(&c.st.CutReads, 1)
		// A one-way cut is silence, not a reset: the peer's packets simply
		// never arrive. An instant read error would make the HTTP transport
		// tear down the conn before the request write completes, turning
		// the asymmetric cut into a symmetric one. Hang to the deadline so
		// the request flows and only the response dies.
		if ls.Blackhole || !ls.Cut {
			return 0, c.hang(c.readDeadline())
		}
		c.closeUnderlying() // a pooled conn must not be reused healthy
		return 0, errLinkCut
	}
	delay := c.sc.ReadDelay + ls.Latency
	if ls.LatencyJitter > 0 {
		c.rngMu.Lock()
		delay += time.Duration(c.rng.Uint64() % uint64(ls.LatencyJitter))
		c.rngMu.Unlock()
	}
	if delay > 0 {
		c.st.add(&c.st.Delays, 1)
		if err := c.pause(delay, c.readDeadline()); err != nil {
			return 0, err
		}
	}
	limit := len(p)
	if ls.ThrottleBytes > 0 {
		c.st.add(&c.st.Throttled, 1)
		limit = min(limit, ls.ThrottleBytes)
		if err := c.pause(throttlePause, c.readDeadline()); err != nil {
			return 0, err
		}
	}
	if len(p) == 0 {
		return c.Conn.Read(p)
	}
	// Injected prefix bytes are delivered before any real traffic and do
	// not advance the real-stream offset.
	if len(c.pre) > 0 {
		n := copy(p, c.pre)
		c.pre = c.pre[n:]
		return n, nil
	}
	if c.termErr != nil {
		return 0, c.termErr
	}
	if c.sc.ReadFragment > 0 {
		limit = min(limit, c.sc.ReadFragment)
	}
	// Never read past a scheduled truncation/reset boundary: the cut
	// lands at the exact byte offset the schedule says.
	cut := c.sc.TruncateReadAt
	if c.sc.ResetReadAt > 0 && (cut == 0 || c.sc.ResetReadAt < cut) {
		cut = c.sc.ResetReadAt
	}
	if cut > 0 {
		if remain := cut - c.rdOff; remain <= 0 {
			return 0, c.kill()
		} else if limit > remain {
			limit = remain
		}
	}
	n, err := c.Conn.Read(p[:limit])
	if n > 0 {
		if hit := CorruptEvery(p[:n], c.rdOff, c.sc.CorruptReadEvery, c.mask); hit > 0 {
			c.st.add(&c.st.CorruptBytes, uint64(hit))
		}
		c.rdOff += n
		c.st.add(&c.st.BytesRead, uint64(n))
	}
	c.st.add(&c.st.Reads, 1)
	if err == nil && cut > 0 && c.rdOff >= cut {
		// Deliver the final bytes now; the next Read reports the cut.
		c.kill()
	}
	return n, err
}

// CorruptEvery XORs mask into every byte of b whose 1-based stream
// offset is a multiple of every, where off is the stream offset of b[0].
// It returns how many bytes it flipped. This is the seeded corruption
// primitive behind Scenario.CorruptReadEvery, exported so other layers
// can inject byte-identical damage — the durable WAL's crash matrix runs
// it over segment files to model media corruption.
func CorruptEvery(b []byte, off, every int, mask byte) int {
	if every <= 0 {
		return 0
	}
	hit := 0
	for i := range b {
		if (off+i+1)%every == 0 {
			b[i] ^= mask
			hit++
		}
	}
	return hit
}

// kill fires the scheduled truncation or reset exactly at its boundary
// and returns the terminal error every subsequent Read repeats.
func (c *Conn) kill() error {
	c.closeUnderlying()
	if c.sc.ResetReadAt > 0 && (c.sc.TruncateReadAt == 0 || c.sc.ResetReadAt <= c.sc.TruncateReadAt) {
		c.st.add(&c.st.Resets, 1)
		c.termErr = ErrInjectedReset
	} else {
		c.st.add(&c.st.Truncates, 1)
		c.termErr = io.EOF
	}
	return c.termErr
}

func (c *Conn) closeUnderlying() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.Conn.Close()
	})
}

// Write applies the link state, then the scenario's write-side faults.
// It reports len(p) on success regardless of duplication.
func (c *Conn) Write(p []byte) (int, error) {
	if ls := c.in.state(c.from, c.to); ls.Cut {
		c.st.add(&c.st.CutWrites, 1)
		if ls.Blackhole {
			return 0, c.hang(c.writeDeadline())
		}
		c.closeUnderlying()
		return 0, errLinkCut
	}
	c.st.add(&c.st.Writes, 1)
	if at := c.sc.WriteStallAt; at > 0 && !c.stalled && c.wrOff+len(p) > at {
		// Deliver the pre-stall prefix, then go quiet.
		head := max(at-c.wrOff, 0)
		if head > 0 {
			if n, err := c.writeSegments(p[:head]); err != nil {
				return n, err
			}
		}
		c.stalled = true
		c.st.add(&c.st.Stalls, 1)
		if err := c.pause(c.sc.StallFor, c.writeDeadline()); err != nil {
			return head, err
		}
		n, err := c.writeSegments(p[head:])
		return head + n, err
	}
	return c.writeSegments(p)
}

// writeSegments fragments, swaps, duplicates, or coalesces p per the
// scenario and delivers it to the underlying conn.
func (c *Conn) writeSegments(p []byte) (int, error) {
	if c.sc.WriteCoalesce {
		c.pendMu.Lock()
		c.pending = append(c.pending, p...)
		c.pendMu.Unlock()
		c.wrOff += len(p)
		c.st.add(&c.st.BytesWritten, uint64(len(p)))
		return len(p), nil
	}
	frag := c.sc.WriteFragment
	if frag <= 0 {
		frag = len(p)
	}
	var segs [][]byte
	for rest := p; len(rest) > 0; {
		n := min(frag, len(rest))
		segs = append(segs, rest[:n])
		rest = rest[n:]
	}
	if c.sc.WriteSwap {
		for i := 0; i+1 < len(segs); i += 2 {
			segs[i], segs[i+1] = segs[i+1], segs[i]
			c.st.add(&c.st.SwappedPairs, 1)
		}
	}
	written := 0
	for _, seg := range segs {
		n, err := c.Conn.Write(seg)
		written += n
		if err != nil {
			return written, err
		}
		if c.sc.WriteDup {
			if _, err := c.Conn.Write(seg); err != nil {
				return written, err
			}
			c.st.add(&c.st.DupSegments, 1)
		}
	}
	c.wrOff += written
	c.st.add(&c.st.BytesWritten, uint64(written))
	return written, nil
}

// flushPending delivers coalesced bytes in one underlying Write.
func (c *Conn) flushPending() error {
	c.pendMu.Lock()
	pend := c.pending
	c.pending = nil
	c.pendMu.Unlock()
	if len(pend) == 0 {
		return nil
	}
	c.st.add(&c.st.CoalescedFlushes, 1)
	_, err := c.Conn.Write(pend)
	return err
}

// Close flushes any coalesced bytes (best effort) and closes the
// underlying conn. It also aborts any in-flight injected pause.
func (c *Conn) Close() error {
	_ = c.flushPending()
	c.closeUnderlying()
	return nil
}
