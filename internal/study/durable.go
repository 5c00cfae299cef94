package study

// The study's durable plane: with Config.DataDir set, every generated
// measurement is appended to a WAL (internal/durable) before it reaches
// the store, and a rerun over the same directory resumes instead of
// restarting. Resume needs no saved RNG state: campaign RNG streams are
// pre-split per campaign and regenerating is cheap, so the runner simply
// replays the generation loop, consuming random draws identically, and
// skips delivering the measurements that are already durable. Each
// campaign appends its own stream in order, so the durable set per
// campaign is always a prefix of that campaign's measurement sequence —
// exactly what the per-campaign Tested counts of the recovered store say
// to skip. Final tables are the deterministic merge of the recovered
// store and the regenerated tail, byte-identical to an uninterrupted
// same-seed run (pinned by resume_test.go and the golden conformance
// suite).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"tlsfof/internal/clientpop"
	"tlsfof/internal/core"
	"tlsfof/internal/durable"
)

// ErrAborted is returned by Run when Config.AbortAfter stopped the run:
// deterministic crash injection for resume tests and recovery drills.
// The WAL holds everything appended before the abort; rerunning with the
// same DataDir resumes.
var ErrAborted = errors.New("study: run aborted by AbortAfter (resume with the same DataDir)")

// errStopped propagates a stop request out of campaign generators.
var errStopped = errors.New("study: generation stopped")

// ResumeInfo reports what the durable plane did for a run.
type ResumeInfo struct {
	// Recovered is the number of measurements already durable when the
	// run started (0 on a fresh run).
	Recovered int
	// Info is the WAL recovery report.
	Info durable.Info
	// WAL is the log accounting at the end of the run.
	WAL durable.Stats
}

// studyManifest pins a data directory to one (study, seed, scale), so a
// resume cannot silently splice two different simulations together.
type studyManifest struct {
	Kind  string          `json:"kind"`
	Study clientpop.Study `json:"study"`
	Seed  uint64          `json:"seed"`
	Scale float64         `json:"scale"`
}

func checkStudyManifest(cfg Config) error {
	if err := os.MkdirAll(cfg.DataDir, 0o777); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	want := studyManifest{Kind: "study", Study: cfg.Study, Seed: cfg.Seed, Scale: cfg.Scale}
	path := filepath.Join(cfg.DataDir, "manifest.json")
	b, err := os.ReadFile(path)
	if err == nil {
		var got studyManifest
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("study: %s: %w", path, err)
		}
		if got != want {
			return fmt.Errorf("study: %s holds %+v, refusing to resume a run configured as %+v", path, got, want)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("study: %w", err)
	}
	b, _ = json.Marshal(want)
	if err := os.WriteFile(path, append(b, '\n'), 0o666); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	return nil
}

// walControl is the run-wide durable state shared by every campaign's
// walTee sink.
type walControl struct {
	wal           *durable.Log
	abortAfter    int64
	snapshotEvery int64
	appended      atomic.Int64
	stopped       atomic.Bool

	mu         sync.Mutex
	checkpoint sync.Mutex
	err        error
}

func (c *walControl) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.stopped.Store(true)
}

func (c *walControl) firstErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *walControl) stop() bool { return c.stopped.Load() }

// walTee is the write-ahead sink wrapper: append to the WAL, then hand
// the measurement to the campaign's store.
type walTee struct {
	ctl  *walControl
	next core.Sink
}

func (s walTee) Ingest(m core.Measurement) {
	c := s.ctl
	if err := c.wal.Append(m); err != nil {
		c.fail(err)
		return
	}
	n := c.appended.Add(1)
	if c.snapshotEvery > 0 && n%c.snapshotEvery == 0 {
		// Serialize checkpoints; campaigns may run concurrently and
		// Checkpoint is not free.
		c.checkpoint.Lock()
		_, err := c.wal.Checkpoint()
		c.checkpoint.Unlock()
		if err != nil {
			c.fail(err)
			return
		}
	}
	if c.abortAfter > 0 && n >= c.abortAfter {
		c.stopped.Store(true)
	}
	s.next.Ingest(m)
}
