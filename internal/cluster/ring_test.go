package cluster

import (
	"fmt"
	"testing"
)

// testKeys returns n deterministic pseudo-content-addressed keys shaped like
// real simcache keys (hex digests are what the ring routes in production).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15+0xabcdef)
	}
	return keys
}

func nodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i)
	}
	return ids
}

// TestRingUniformity pins the load-balance guarantee the virtual-node count
// was chosen for: across 8 members and a large keyspace, no member owns more
// than ~1.4x the mean and none less than ~0.6x — so the max/min spread stays
// well under 2x and a cluster's throughput scales with its node count
// instead of being gated by one hot member.
func TestRingUniformity(t *testing.T) {
	const members, nkeys = 8, 40000
	r := NewRing(nodeIDs(members), DefaultVirtualNodes)
	load := map[string]int{}
	for _, k := range testKeys(nkeys) {
		owner := r.Owner(k)
		if owner == "" {
			t.Fatalf("key %s has no owner on a populated ring", k)
		}
		load[owner]++
	}
	if len(load) != members {
		t.Fatalf("only %d of %d members own keys: %v", len(load), members, load)
	}
	mean := float64(nkeys) / members
	minLoad, maxLoad := nkeys, 0
	for id, n := range load {
		t.Logf("%s: %d keys (%.2fx mean)", id, n, float64(n)/mean)
		if n < minLoad {
			minLoad = n
		}
		if n > maxLoad {
			maxLoad = n
		}
	}
	if f := float64(maxLoad) / mean; f > 1.4 {
		t.Errorf("hottest member owns %.2fx the mean share (max %d, mean %.0f); want <= 1.4x", f, maxLoad, mean)
	}
	if f := float64(minLoad) / mean; f < 0.6 {
		t.Errorf("coldest member owns %.2fx the mean share (min %d, mean %.0f); want >= 0.6x", f, minLoad, mean)
	}
	if ratio := float64(maxLoad) / float64(minLoad); ratio > 2.0 {
		t.Errorf("max/min load ratio %.2f; want <= 2.0", ratio)
	}
}

// TestRingBoundedRemapJoin verifies the consistent-hash contract on growth:
// adding a 9th member moves only the keys the new member now owns — roughly
// K/N of them — and every moved key moves TO the new member, never between
// survivors. (A modulo-hash table would reshuffle ~8/9 of the keyspace.)
func TestRingBoundedRemapJoin(t *testing.T) {
	const nkeys = 40000
	ids := nodeIDs(8)
	before := NewRing(ids, DefaultVirtualNodes)
	after := NewRing(append(append([]string{}, ids...), "node-joining"), DefaultVirtualNodes)

	moved := 0
	for _, k := range testKeys(nkeys) {
		oldOwner, newOwner := before.Owner(k), after.Owner(k)
		if oldOwner == newOwner {
			continue
		}
		moved++
		if newOwner != "node-joining" {
			t.Fatalf("key %s moved %s -> %s, bypassing the joining node", k, oldOwner, newOwner)
		}
	}
	// Expected share: K/9. Allow 2x slack for virtual-node placement variance.
	bound := 2 * nkeys / 9
	if moved > bound {
		t.Errorf("join remapped %d of %d keys; want <= %d (~K/N)", moved, nkeys, bound)
	}
	if moved == 0 {
		t.Error("join remapped nothing; the new member owns no keyspace")
	}
	t.Logf("join moved %d/%d keys (ideal %d)", moved, nkeys, nkeys/9)
}

// TestRingBoundedRemapLeave is the mirror: removing a member strands only
// its own keys, which redistribute across survivors; keys owned by survivors
// never move.
func TestRingBoundedRemapLeave(t *testing.T) {
	const nkeys = 40000
	ids := nodeIDs(8)
	before := NewRing(ids, DefaultVirtualNodes)
	after := NewRing(ids[:7], DefaultVirtualNodes) // node-07 leaves

	moved := 0
	for _, k := range testKeys(nkeys) {
		oldOwner, newOwner := before.Owner(k), after.Owner(k)
		if oldOwner == newOwner {
			continue
		}
		moved++
		if oldOwner != "node-07" {
			t.Fatalf("key %s moved %s -> %s though its owner never left", k, oldOwner, newOwner)
		}
	}
	bound := 2 * nkeys / 8
	if moved > bound {
		t.Errorf("leave remapped %d of %d keys; want <= %d (~K/N)", moved, nkeys, bound)
	}
	t.Logf("leave moved %d/%d keys (ideal %d)", moved, nkeys, nkeys/8)
}

// TestRingDeterminism: every node must build byte-identical rings from the
// same member set, regardless of input order, or routing would disagree.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"a", "b", "c"}, 64)
	b := NewRing([]string{"c", "a", "b", "a"}, 64) // shuffled + duplicate
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("Len: got %d and %d, want 3", a.Len(), b.Len())
	}
	for _, k := range testKeys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on %s: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil, 0).Owner("k"); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	one := NewRing([]string{"solo"}, 0)
	for _, k := range testKeys(10) {
		if got := one.Owner(k); got != "solo" {
			t.Errorf("single ring owner(%s) = %q, want solo", k, got)
		}
	}
}
