// Package durable is the persistence plane: an append-only, CRC-framed
// measurement write-ahead log with periodic aggregate snapshots and log
// compaction, so a study that ran for weeks (2.9M / 12.3M certificate
// tests, §4) survives the process that collected it.
//
// The paper's campaigns accumulated measurements over months; our
// reproduction previously held every measurement in a process-lifetime
// store.DB, so one reportd restart forfeited the whole study. This
// package fixes that asymmetry:
//
//   - Log appends core.Measurement frames (the internal/core binary
//     codec behind the ingest wire idiom) to size-rotated segment files.
//     Appends are buffered; a background syncer fsyncs on a configurable
//     cadence so durability never sits on the ingest hot path.
//   - Rotate seals the active segment; Compact replays sealed segments
//     into a store snapshot (internal/store's deterministic aggregate
//     image) and deletes the covered segments, bounding disk at paper
//     scale.
//   - Recover rebuilds a store.DB from the newest valid snapshot plus
//     the surviving WAL tail, dropping only frames at or after the first
//     damage point. Tables rendered from a recovered store are
//     byte-identical to the never-crashed run over the surviving prefix
//     — pinned by the crash-matrix test here and the golden-table
//     conformance suite at the repo root.
//   - ServeTail streams a follower every durable frame from the seq it
//     asks for (replication, DESIGN.md §12). It reads segments only up
//     to the fsynced size and resumes from a cursor the Log keeps where
//     the last walk stopped, so a follower at the head of the log costs
//     its new frames, not the log; any other resume point falls back to
//     a walk from the start of its segment.
//
// See DESIGN.md §10 for the frame format, fsync policy, and compaction
// invariants.
package durable
