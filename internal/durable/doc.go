// Package durable is the persistence plane: an append-only, CRC-framed
// measurement write-ahead log with periodic store snapshots and log
// compaction, so a study that ran for weeks (2.9M / 12.3M certificate
// tests, §4) survives the process that collected it.
//
// The paper's campaigns accumulated measurements over months; our
// reproduction previously held every measurement in a process-lifetime
// store.DB, so one reportd restart forfeited the whole study. This
// package fixes that asymmetry:
//
//   - Log appends one frame per commit to size-rotated segment files.
//     A frame's payload is a core.Batch: a per-batch table of distinct
//     (host, campaign, observation) tuples, a country table and
//     fixed-width rows, each of which may carry a count of equal tests
//     (batch version 2) — the same layout as a /cluster/ingest body, so a
//     routed batch reaches a replica WAL without ever becoming one
//     record per measurement. This package frames batches and checks
//     each with core.Batch.Check before it is written; it owns no
//     layout of its own below the frame. Appends are
//     buffered; a background syncer fsyncs on a configurable cadence so
//     durability never sits on the ingest hot path.
//   - Checkpoint is the one compactor: it seals the active segment,
//     replays the sealed segments whose frames all lie below its bound
//     (a follower's watermark; none for a log nobody tails) into a store
//     snapshot (internal/store's deterministic image, itself batch frames:
//     one weighted row per clean (country, host type) cell, then the
//     proxied records) and deletes the covered segments, bounding disk at
//     paper scale. reportd runs it on -snapshot-every and at shutdown.
//   - ShardOf is the host partition, and OpenShards pins it on disk.
//   - One function reads a log directory, and Recover, Open's repair,
//     OpenShards and Checkpoint all call it: the newest valid snapshot, then
//     the segments in sequence order up to the first gap or damaged
//     frame. Recover rebuilds a store.DB from that reading, Open
//     truncates and sets aside what lies past it and appends from there,
//     so a reopened log resumes exactly where recovery stops. Tables
//     rendered from a recovered store are byte-identical to the
//     never-crashed run over the surviving prefix — pinned by the
//     crash-matrix test here and the golden-table conformance suite at
//     the repo root.
//   - ServeTail streams a follower every durable frame from the seq it
//     asks for (replication, DESIGN.md §12): a segment header, the
//     frames' bytes as the segment holds them and an end marker, which
//     AppendTail on the replica's Log checks and appends unchanged. A
//     seq a snapshot already covers is refused, since the stream
//     carries frames only. ServeTail reads segments only up to the
//     fsynced size and resumes from a cursor the Log keeps where the
//     last walk stopped, so a follower at the head of the log costs its
//     new frames, not the log; any other resume point falls back to a
//     walk from the start of its segment.
//
// See DESIGN.md §10 for the frame format, fsync policy, and compaction
// invariants.
package durable
