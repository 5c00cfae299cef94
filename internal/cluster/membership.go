package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// State is a member's lifecycle state. There is no suspicion phase: the
// orchestrator decides, the cluster obeys.
type State uint8

const (
	// Alive members own ring arcs and accept writes.
	Alive State = iota
	// Draining members are leaving gracefully: they keep serving reads
	// and replication tails but answer new writes with a not-owner
	// verdict naming the new owner.
	Draining
	// Dead members are gone; their shards are recovered from replicas.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Draining:
		return "draining"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Member is one reportd instance in the cluster view.
type Member struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State State  `json:"state"`
}

// ParseMembers parses the flag syntax "id=url,id=url,...".
func ParseMembers(spec string) ([]Member, error) {
	var members []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad member %q (want id=url)", part)
		}
		members = append(members, Member{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	return members, nil
}

// Membership is one process's view of the cluster: the member set, an
// ownership ring recomputed over the alive members, and an epoch that
// counts every ring change (a rebalance). All methods are safe for
// concurrent use.
type Membership struct {
	vnodes int

	mu      sync.RWMutex
	members map[string]Member
	ring    *Ring
	epoch   uint64
}

// NewMembership builds a view over members (IDs must be unique; at least
// one). vnodes <= 0 means DefaultVNodes.
func NewMembership(members []Member, vnodes int) (*Membership, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	ms := &Membership{vnodes: vnodes, members: make(map[string]Member, len(members))}
	for _, m := range members {
		if m.ID == "" {
			return nil, fmt.Errorf("cluster: member with empty ID")
		}
		if _, dup := ms.members[m.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", m.ID)
		}
		ms.members[m.ID] = m
	}
	ms.rebuildLocked()
	return ms, nil
}

// rebuildLocked recomputes the ownership ring over the alive members.
func (ms *Membership) rebuildLocked() {
	ids := make([]string, 0, len(ms.members))
	for id, m := range ms.members {
		if m.State == Alive {
			ids = append(ids, id)
		}
	}
	ms.ring = NewRing(ids, ms.vnodes)
}

// Epoch returns how many times the ring has changed.
func (ms *Membership) Epoch() uint64 {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return ms.epoch
}

// Get returns the member by ID.
func (ms *Membership) Get(id string) (Member, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	m, ok := ms.members[id]
	return m, ok
}

// Members returns every member (any state), sorted by ID.
func (ms *Membership) Members() []Member {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	out := make([]Member, 0, len(ms.members))
	for _, m := range ms.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AliveCount counts members in the Alive state.
func (ms *Membership) AliveCount() int {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	n := 0
	for _, m := range ms.members {
		if m.State == Alive {
			n++
		}
	}
	return n
}

// Owner routes a report host to the member owning it. False when no
// alive member remains or the host's owner vanished mid-lookup.
func (ms *Membership) Owner(host string) (Member, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	id, ok := ms.ring.Owner(host)
	if !ok {
		return Member{}, false
	}
	m, ok := ms.members[id]
	return m, ok
}

// ReplicaTarget returns the member holding id's replica: its ring
// successor among the members alive when the view was built. False for
// a one-node cluster or an unknown id.
func (ms *Membership) ReplicaTarget(id string) (Member, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	succ, ok := ms.ring.Successor(id)
	if !ok {
		return Member{}, false
	}
	m, ok := ms.members[succ]
	return m, ok
}

// SetState transitions one member, rebuilding the ring and bumping the
// epoch when ownership actually changed. It reports whether anything
// changed. Dead is terminal: a dead member never comes back under the
// same ID (restart it and it catches up from its own WAL, but routing
// state machines stay monotonic).
func (ms *Membership) SetState(id string, s State) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.members[id]
	if !ok || m.State == s || m.State == Dead {
		return false
	}
	m.State = s
	ms.members[id] = m
	ms.rebuildLocked()
	ms.epoch++
	return true
}

// MarkDead is SetState(id, Dead).
func (ms *Membership) MarkDead(id string) bool { return ms.SetState(id, Dead) }

// MarkDraining is SetState(id, Draining).
func (ms *Membership) MarkDraining(id string) bool { return ms.SetState(id, Draining) }
