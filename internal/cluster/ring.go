// Package cluster turns N psimd nodes into one logical simulation service.
// It provides the pieces the service layer composes: a consistent-hash ring
// that assigns every content-addressed simulation key an owner node, a
// gossip-light membership table driven by peer heartbeats, and an HTTP
// transport for the cluster protocol (heartbeats and checksum-verified cache
// entry fetches).
//
// The package deliberately knows nothing about simulations: cache entries
// travel as opaque bytes, and the owning process wires its store in through
// Hooks. That keeps the protocol reusable and the dependency arrow pointing
// one way (service → cluster, never back).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// DefaultVirtualNodes is the number of ring points per member. More points
// flatten the load distribution (at 160, an 8-node ring keeps the max/min
// keyspace share under ~1.3x) at a small cost in ring-build time; lookups
// stay O(log(members·vnodes)).
const DefaultVirtualNodes = 160

// Ring is an immutable consistent-hash ring over node IDs. A key is owned by
// the first virtual node clockwise of its hash. Because membership changes
// only add or remove one node's virtual points, they remap only the keys
// whose clockwise successor changed — on average K/N of K keys for an
// N-node ring — instead of rehashing the world.
type Ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // distinct member IDs, sorted
}

type ringPoint struct {
	hash uint64
	id   string
}

// hash64 maps a string to a point on the ring. SHA-256 is already the
// cluster's key currency (simcache keys are hex SHA-256 digests); reusing it
// here keeps the placement independent of Go's seeded runtime hashes, so
// every node computes the identical ring.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over ids with the given number of virtual nodes per
// member (DefaultVirtualNodes if vnodes <= 0). Duplicate IDs are collapsed.
// An empty id set yields an empty ring whose Owner returns "".
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	var distinct []string
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		distinct = append(distinct, id)
	}
	sort.Strings(distinct)
	r := &Ring{ids: distinct}
	if len(distinct) == 0 {
		return r
	}
	r.points = make([]ringPoint, 0, len(distinct)*vnodes)
	var buf [10]byte
	for _, id := range distinct {
		for v := 0; v < vnodes; v++ {
			binary.BigEndian.PutUint16(buf[:2], uint16(v))
			h := sha256.New()
			h.Write(buf[:2])
			h.Write([]byte(id))
			var sum [sha256.Size]byte
			h.Sum(sum[:0])
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-width hash collision is astronomically unlikely; break the
		// tie on ID so the order is still deterministic everywhere.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Members returns the distinct member IDs, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.ids...) }

// Len reports the number of members.
func (r *Ring) Len() int { return len(r.ids) }

// Owner returns the member owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(hash64(key))].id
}

// successor finds the index of the first point at or clockwise of h.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the smallest point owns the top arc
	}
	return i
}

// OwnerOrder returns up to n distinct members in preference order for key:
// the owner first, then the members whose virtual nodes follow clockwise.
// This is the failover order — when the owner is unreachable, the next entry
// is the natural fallback every node agrees on.
func (r *Ring) OwnerOrder(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i, start := 0, r.successor(hash64(key)); len(out) < n && i < len(r.points); i++ {
		id := r.points[(start+i)%len(r.points)].id
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
