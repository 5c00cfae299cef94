// Package cluster is the distributed measurement plane: it partitions
// ingest across N reportd nodes by consistent hashing on the report host
// (the same shard key internal/ingest uses on one box) and replicates
// each node's durable WAL stream to one peer, so a SIGKILLed node loses
// nothing that was ever acknowledged.
//
// The pieces, bottom up:
//
//   - Ring: a consistent-hash ring with virtual nodes. Owner(host) names
//     the node a report belongs to; Successor(id) names the peer that
//     holds id's replica.
//   - Membership: the cluster view one process routes against — members
//     with alive/draining/dead states, an ownership ring recomputed over
//     the alive set, and an epoch that counts rebalances. There is no
//     gossip: the orchestrator (internal/fleet, mounted by fleetctl)
//     observes failures and broadcasts state changes, which keeps
//     routing deterministic enough to test byte-for-byte.
//   - Node: one reportd's cluster runtime. Each local shard is a
//     durable.Log plus a store.DB behind one mutex; a batch's shard
//     groups are WAL-appended, fsynced and applied concurrently, each
//     under its shard's mutex, and then — with no lock held, when a
//     replica peer is alive — the batch is held until the peer's
//     follower has durably copied it (the watermark) before the client
//     sees an ack. Acknowledged therefore means "on two disks", and an
//     unacknowledged batch touched nothing, so a router may retry it
//     elsewhere without double counting.
//   - follower: the pull side of replication. It tails a peer's WAL over
//     /repl/tail — the stream is the WAL's own bytes, written by
//     durable.Log.ServeTail and applied by durable.Log.AppendTail, so
//     this package knows no record layout — and resumes from its own
//     durable position after any cut. A caught-up poll parks on the
//     source until a commit wakes it, so the pull behaves as a push: the
//     next poll's position is the ack.
//   - RouteClient: a core.BatchCommitter that keeps one core.Batch per
//     owning node, reroutes on not-owner verdicts (a draining node) and
//     on node death, and keeps enough accounting to prove nothing was
//     dropped.
//
// Correctness claims here are enforced by cluster_test.go at the repo
// root: a three-node in-process cluster ingests a seeded study, one node
// is killed mid-flight, and the orchestrator's merge of the surviving
// stores plus the dead node's replica must render tables byte-identical
// to a sequential run.
package cluster
