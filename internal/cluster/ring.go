package cluster

// This file is the routing half of the cluster layer: a consistent-hash
// ring mapping aligncache content addresses onto node IDs. Each member
// contributes replicas virtual points (SHA-256 of "id#vnode", first eight
// bytes), so membership changes move only ~1/N of the key space — the
// property that makes peer caches worth forwarding to: when a node dies,
// only its arc re-homes; when it is readmitted, the same arc re-homes back,
// landing on whatever its cache still holds.
//
// The ring itself is immutable once built; the Cluster swaps a new ring on
// every membership change and readers work on the snapshot they grabbed, so
// routing never blocks on the health machinery.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/aligncache"
)

// ring is one immutable consistent-hash table: virtual points sorted by
// hash, each owned by a member node ID.
type ring struct {
	hashes []uint64
	owners []string // owners[i] owns arc ending at hashes[i]
	nodes  []string // distinct members, sorted (for stats)
}

// buildRing constructs the ring over the given members, replicas virtual
// points each. An empty member list yields a nil ring; callers treat a nil
// ring as "route everything locally".
func buildRing(members []string) *ring {
	if len(members) == 0 {
		return nil
	}
	r := &ring{
		hashes: make([]uint64, 0, len(members)*replicas),
		owners: make([]string, 0, len(members)*replicas),
		nodes:  append([]string(nil), members...),
	}
	sort.Strings(r.nodes)
	type pt struct {
		h    uint64
		node string
	}
	pts := make([]pt, 0, len(members)*replicas)
	for _, m := range r.nodes {
		for v := 0; v < replicas; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", m, v)))
			pts = append(pts, pt{binary.BigEndian.Uint64(sum[:8]), m})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].node < pts[j].node // deterministic on (astronomically unlikely) collisions
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.node)
	}
	return r
}

// pointOf projects a content address onto the ring's hash space. The key is
// already a uniform SHA-256, so its first eight bytes are the point.
func pointOf(k aligncache.Key) uint64 {
	return binary.BigEndian.Uint64(k[:8])
}

// owner returns the member owning the given point: the first virtual point
// clockwise (≥ h), wrapping at the top. A nil ring owns nothing and returns
// "", which callers treat as local.
func (r *ring) owner(h uint64) string {
	if r == nil || len(r.hashes) == 0 {
		return ""
	}
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// members returns the distinct member IDs, sorted.
func (r *ring) members() []string {
	if r == nil {
		return nil
	}
	return r.nodes
}
