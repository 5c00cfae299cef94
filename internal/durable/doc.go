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
//   - Checkpoint (Rotate, then Compact) is the one compactor: it seals
//     the active segment, replays the sealed segments into a store
//     snapshot (internal/store's deterministic aggregate image) and
//     deletes the covered segments, bounding disk at paper scale.
//     reportd runs it on -snapshot-every and once more at shutdown.
//   - One function reads a log directory, and Recover, Open's repair,
//     OpenShards and Compact all call it: the newest valid snapshot, then
//     the segments in sequence order up to the first gap or damaged
//     frame. Recover rebuilds a store.DB from that reading, Open
//     truncates and sets aside what lies past it and appends from there,
//     so a reopened log resumes exactly where recovery stops. Tables
//     rendered from a recovered store are byte-identical to the
//     never-crashed run over the surviving prefix — pinned by the
//     crash-matrix test here and the golden-table conformance suite at
//     the repo root.
//   - ServeTail streams a follower every durable frame from the seq it
//     asks for (replication, DESIGN.md §12); a seq a snapshot already
//     covers is refused, since the stream carries frames only. It reads
//     segments only up to the fsynced size and resumes from a cursor the
//     Log keeps where the last walk stopped, so a follower at the head of
//     the log costs its new frames, not the log; any other resume point
//     falls back to a walk from the start of its segment.
//
// See DESIGN.md §10 for the frame format, fsync policy, and compaction
// invariants.
package durable
