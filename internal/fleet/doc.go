// Package fleet is the cluster orchestrator: the one implementation of
// the membership-mark, drain, health and merge protocol that reportd
// nodes obey but never run themselves (DESIGN.md §12–13). cmd/fleetctl
// mounts it around its probe fleet, and the kill, chaos and cluster-mode
// gates drive the same methods one step at a time.
//
// The cluster has no gossip. An Orchestrator keeps its own
// cluster.Membership view and broadcasts every change to it — a death,
// a drain — to each peer that is not dead, draining peers included. A
// peer that misses a mark gets it queued and re-delivered until it acks
// or dies itself. Health comes from a cluster.Scorer fed by status polls
// and the nodes' self-reported degradation counters; only a Dead verdict
// acts. The merge takes every serving node's own shards and each dead
// node's shards from whichever survivor holds its replica, and folds
// them through store.Merge's canonical order — the same merge the
// golden-table conformance suite pins.
package fleet
