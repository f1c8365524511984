package cluster

import (
	"reflect"
	"testing"
)

func info(id string) NodeInfo { return NodeInfo{ID: id, URL: "http://" + id} }

func newTestMembership(selfID string, seedIDs ...string) *Membership {
	seeds := make([]NodeInfo, len(seedIDs))
	for i, id := range seedIDs {
		seeds[i] = info(id)
	}
	return NewMembership(info(selfID), seeds, 16)
}

// TestMembershipSeedsRouteImmediately: a statically configured cluster must
// route correctly before any heartbeat completes, so seeds (and self) start
// on the ring.
func TestMembershipSeedsRouteImmediately(t *testing.T) {
	m := newTestMembership("a", "a", "b", "c") // self listed in shared seeds: filtered
	if got := m.Ring().Members(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("initial ring = %v, want [a b c]", got)
	}
	if alive, dead := m.Counts(); alive != 2 || dead != 0 {
		t.Fatalf("counts = %d alive %d dead, want 2/0", alive, dead)
	}
	if _, ok := m.Lookup("a"); !ok {
		t.Error("Lookup(self) failed")
	}
}

// TestMembershipFailThreshold: a peer survives threshold-1 missed heartbeats,
// dies on the threshold-th, and one successful contact fully resurrects it.
func TestMembershipFailThreshold(t *testing.T) {
	m := newTestMembership("a", "b")
	for i := 0; i < 2; i++ {
		m.MarkFailure("b", 3)
		if m.Ring().Len() != 2 {
			t.Fatalf("peer b dead after %d failures with threshold 3", i+1)
		}
	}
	m.MarkFailure("b", 3)
	if got := m.Ring().Members(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("ring after death = %v, want [a]", got)
	}
	m.MarkAlive("b", false)
	if m.Ring().Len() != 2 {
		t.Fatal("peer b not restored after successful contact")
	}
	// The failure streak must have reset: one new miss is not fatal again.
	m.MarkFailure("b", 3)
	if m.Ring().Len() != 2 {
		t.Fatal("single failure after recovery killed peer b (stale fail count)")
	}
}

// TestMembershipProxyFailureKillsImmediately: threshold 1 is the proxy path's
// contract — connection refused mid-request removes the peer at once.
func TestMembershipFirstFailureThresholdOne(t *testing.T) {
	m := newTestMembership("a", "b")
	m.MarkFailure("b", 1)
	if m.Ring().Len() != 1 {
		t.Fatal("threshold-1 failure did not remove peer")
	}
}

// TestMembershipMergeRumors: gossip adds unknown members — routable at once
// when the reporter vouches they are alive, as probe-only candidates when
// the report says dead. A dead rumor about a peer we can still reach must
// not kill it (liveness is first-hand).
func TestMembershipMergeRumors(t *testing.T) {
	m := newTestMembership("a", "b")
	m.Merge([]PeerState{
		{NodeInfo: info("c"), Alive: true},
		{NodeInfo: info("d"), Alive: false},
		{NodeInfo: info("b"), Alive: false}, // rumor: b is dead
		{NodeInfo: info("a"), Alive: false}, // rumor about self: ignored
	})
	if got := m.Ring().Members(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("ring after merge = %v, want [a b c] (vouched c joins, rumored-dead d probes only, b survives rumor)", got)
	}
	if _, ok := m.Lookup("d"); !ok {
		t.Error("rumored member d not retained as probe candidate")
	}
	// A member that restarted under a new URL is re-addressed by gossip.
	m.Merge([]PeerState{{NodeInfo: NodeInfo{ID: "b", URL: "http://b-new"}, Alive: true}})
	if got, _ := m.Lookup("b"); got.URL != "http://b-new" {
		t.Errorf("peer b URL = %s, want http://b-new", got.URL)
	}
}

// TestMembershipDraining: a draining node leaves its own ring view (so
// nothing new routes to itself) and a peer reported draining leaves ours.
func TestMembershipDraining(t *testing.T) {
	m := newTestMembership("a", "b")
	m.SetDraining(true)
	if got := m.Ring().Members(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("draining self still on own ring: %v", got)
	}
	m.SetDraining(false)
	m.MarkAlive("b", true) // b reports itself draining
	if got := m.Ring().Members(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("draining peer still on ring: %v", got)
	}
	m.MarkAlive("b", false) // b finished its restart
	if m.Ring().Len() != 2 {
		t.Fatal("peer b not restored after drain ended")
	}
}
