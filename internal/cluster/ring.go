// Package cluster shards translation serving across a static set of
// omniserved instances. Each module hash has a small ordered set of
// owner nodes on a consistent-hash ring; clients route execs to
// owners, and nodes fill cache misses from the owners before paying for
// a retranslation — the one way a translation crosses nodes.
//
// The trust model does not change with clustering: a peer is just
// another untrusted source of bytes. Modules are content-addressed
// (the receiver recomputes the hash), and translations pass the same
// SFI admission gate as disk-cache entries before a single
// instruction is served. A compromised peer can cause extra local
// translation work; it cannot cause unverified code to run.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVnodes is the number of ring points per member. 64 keeps the
// per-member load imbalance low for the handful-of-nodes clusters
// this targets while keeping Owners a cheap binary search.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over the member
// addresses. Every node and every client builds the same ring from
// the same member list, so routing agrees cluster-wide without any
// coordination traffic.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring from members (order-insensitive, duplicates
// collapsed) with vnodes points per member (non-positive selects
// DefaultVnodes).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := map[string]bool{}
	var uniq []string
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq}
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{ringHash(fmt.Sprintf("%s#%d", m, i)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the member addresses, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Owners returns the first n distinct members clockwise from key's
// ring position — the nodes responsible for holding key. n is clamped
// to the member count; the order is the failover order.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.members) == 0 {
		return nil
	}
	if n <= 0 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
