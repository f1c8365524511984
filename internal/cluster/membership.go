package cluster

import (
	"sort"
	"sync"
	"time"
)

// NodeInfo identifies one cluster member: a stable ID (the ring is hashed
// over IDs) and the base URL peers use to reach it.
type NodeInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// PeerState is the gossiped view of one member: identity plus liveness. It
// is what heartbeats exchange, so a node learns about members it was never
// seeded with.
type PeerState struct {
	NodeInfo
	// Alive is the reporter's current belief. A dead report never kills a
	// peer the receiver can still reach (liveness is learned first-hand),
	// but it does introduce unknown members as probe candidates.
	Alive bool `json:"alive"`
	// Draining marks a member that is shutting down gracefully: it still
	// answers, but must leave the ring so no new work routes to it.
	Draining bool `json:"draining"`
}

// peer is the membership table's record of one remote member.
type peer struct {
	info     NodeInfo
	alive    bool
	draining bool
	fails    int // consecutive failed probes
	lastSeen time.Time
}

// Membership tracks the cluster's member set and derives the routing ring
// from it. Seeds (and self) start alive: a statically configured cluster
// routes correctly from the first request, and heartbeats then handle
// failures, drains, and late joiners. All methods are safe for concurrent
// use.
type Membership struct {
	self   NodeInfo
	vnodes int

	mu       sync.Mutex
	peers    map[string]*peer // keyed by NodeInfo.ID, self excluded
	draining bool             // self
	ring     *Ring            // rebuilt on any liveness change
}

// NewMembership builds a table for self with the given seed peers (self is
// filtered out of seeds, so a shared static peer list works verbatim on
// every node).
func NewMembership(self NodeInfo, seeds []NodeInfo, vnodes int) *Membership {
	m := &Membership{self: self, vnodes: vnodes, peers: map[string]*peer{}}
	now := time.Now()
	for _, s := range seeds {
		if s.ID == "" || s.ID == self.ID {
			continue
		}
		m.peers[s.ID] = &peer{info: s, alive: true, lastSeen: now}
	}
	m.rebuildLocked()
	return m
}

// Self returns this node's identity.
func (m *Membership) Self() NodeInfo { return m.self }

// rebuildLocked recomputes the ring over self plus every alive, non-draining
// peer. Callers hold m.mu.
func (m *Membership) rebuildLocked() {
	ids := make([]string, 0, len(m.peers)+1)
	if !m.draining {
		ids = append(ids, m.self.ID)
	}
	for id, p := range m.peers {
		if p.alive && !p.draining {
			ids = append(ids, id)
		}
	}
	m.ring = NewRing(ids, m.vnodes)
}

// Ring returns the current routing ring (immutable; a membership change
// installs a new one).
func (m *Membership) Ring() *Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring
}

// Lookup resolves a member ID (self included) to its info.
func (m *Membership) Lookup(id string) (NodeInfo, bool) {
	if id == m.self.ID {
		return m.self, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[id]; ok {
		return p.info, true
	}
	return NodeInfo{}, false
}

// Peers returns every known remote member's state, sorted by ID.
func (m *Membership) Peers() []PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerState, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, PeerState{NodeInfo: p.info, Alive: p.alive, Draining: p.draining})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counts returns how many remote members are routable vs not.
func (m *Membership) Counts() (alive, dead int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		if p.alive && !p.draining {
			alive++
		} else {
			dead++
		}
	}
	return alive, dead
}

// MarkAlive records a successful contact with id (optionally updating its
// draining state from the peer's own report).
func (m *Membership) MarkAlive(id string, draining bool) {
	if id == m.self.ID {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return
	}
	changed := !p.alive || p.draining != draining
	p.alive, p.draining, p.fails, p.lastSeen = true, draining, 0, time.Now()
	if changed {
		m.rebuildLocked()
	}
}

// MarkFailure records a failed probe of id; after threshold consecutive
// failures the peer is ruled dead and leaves the ring. threshold <= 1 kills
// on the first failure — what the proxy path uses, since a connection
// refused mid-request is much stronger evidence than a missed heartbeat.
func (m *Membership) MarkFailure(id string, threshold int) {
	if id == m.self.ID {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return
	}
	p.fails++
	if p.alive && p.fails >= max(threshold, 1) {
		p.alive = false
		m.rebuildLocked()
	}
}

// Merge folds a gossiped peer list into the table. Unknown members are
// added (dead, to be proven by our own probe — second-hand liveness is a
// rumor, not a fact) unless the reporter vouches they are alive, in which
// case they join routable immediately; known members only pick up identity
// changes (a member restarted under a new URL).
func (m *Membership) Merge(states []PeerState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, st := range states {
		if st.ID == "" || st.ID == m.self.ID {
			continue
		}
		p, ok := m.peers[st.ID]
		if !ok {
			m.peers[st.ID] = &peer{info: st.NodeInfo, alive: st.Alive, draining: st.Draining, lastSeen: time.Now()}
			changed = changed || st.Alive
			continue
		}
		if st.URL != "" && st.URL != p.info.URL {
			p.info.URL = st.URL
		}
	}
	if changed {
		m.rebuildLocked()
	}
}

// SetDraining flags this node as draining: it leaves its own ring view and
// reports the state to peers via heartbeats, so the cluster routes around
// it while it finishes accepted work.
func (m *Membership) SetDraining(v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining == v {
		return
	}
	m.draining = v
	m.rebuildLocked()
}

// Draining reports this node's own draining flag.
func (m *Membership) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}
