// Package dispatch implements flow-affine, load-aware request placement:
// Table, an immutable flow router (a seeded consistent-hash ring plus
// standing elephant pins); FlowStats, a lock-free sliding-window
// flow-rate sketch for elephant detection; Plan, a deterministic
// migration planner that Table.Rebalance drives; and a small
// fixed-capacity LRU used to model per-core warm state.
//
// λ-NIC's gateway originally sprayed requests round-robin, destroying any
// warm state (match-table entries, KV working set, I-cache) a worker had
// built for a client. The oRSS-NIC direction is flow-to-core affinity plus
// migration of only the heavy flows: mice stay pinned so locality is
// preserved, elephants move so no worker melts. The live gateway and the
// simulated skew experiment route through the same Table and FlowStats.
// Everything here is deterministic under a fixed seed so simulation runs
// are bit-identical.
package dispatch

import "sort"

// fnv1a64 constants (FNV-1a, 64 bit).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// FlowKey derives a stable 64-bit flow identity from a client source
// address and a workload ID. The same (source, workload) pair always maps
// to the same key, on every node, with no seed: flow identity is a property
// of the traffic, not of the dispatcher instance.
func FlowKey(source string, workload uint32) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(source); i++ {
		h ^= uint64(source[i])
		h *= fnvPrime64
	}
	// Fold the workload in byte by byte so adjacent IDs diverge fully.
	for shift := 0; shift < 32; shift += 8 {
		h ^= uint64((workload >> shift) & 0xff)
		h *= fnvPrime64
	}
	return h
}

// mix64 finalizes a 64-bit hash (splitmix64 finalizer). Used to place
// virtual nodes on the ring and to turn flow keys into ring points.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// virtualNodes is the per-member vnode count: 64 keeps the load spread
// within a few percent of even for double-digit member counts while
// keeping ring rebuilds cheap.
const virtualNodes = 64

// Ring is an immutable seeded consistent-hash ring. Build one per member
// set; Table rebuilds it whenever its members change, so readers never
// observe a half-updated ring.
type Ring struct {
	points  []uint64 // sorted vnode hash points
	owners  []int    // owners[i] = member index owning points[i]
	members []string
}

// NewRing builds a ring over members with the given seed. Member order
// does not matter: placement depends only on the member names and the
// seed, so adding or removing one member leaves unrelated flows pinned
// where they were. An empty member list yields a ring whose Pick
// returns -1.
func NewRing(members []string, seed uint64) *Ring {
	r := &Ring{members: append([]string(nil), members...)}
	if len(members) == 0 {
		return r
	}
	type point struct {
		hash  uint64
		owner int
	}
	pts := make([]point, 0, len(members)*virtualNodes)
	for i, m := range members {
		h := uint64(fnvOffset64)
		for j := 0; j < len(m); j++ {
			h ^= uint64(m[j])
			h *= fnvPrime64
		}
		h ^= seed
		for v := 0; v < virtualNodes; v++ {
			pts = append(pts, point{mix64(h + uint64(v)*0x9e3779b97f4a7c15), i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].hash != pts[b].hash {
			return pts[a].hash < pts[b].hash
		}
		// Tie-break on owner so equal hashes (vanishingly rare) are
		// still deterministic regardless of sort internals.
		return pts[a].owner < pts[b].owner
	})
	r.points = make([]uint64, len(pts))
	r.owners = make([]int, len(pts))
	for i, p := range pts {
		r.points[i] = p.hash
		r.owners[i] = p.owner
	}
	return r
}

// Members returns the member list the ring was built over.
func (r *Ring) Members() []string { return r.members }

// Pick returns the index (into the member list) owning the given flow,
// or -1 if the ring is empty.
func (r *Ring) Pick(flow uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	return r.owners[r.search(mix64(flow))]
}

// Successors returns up to max distinct member indices in ring order
// starting at the flow's owner. It is the deterministic failover order:
// if the owner is down, the flow re-pins to the next live successor, the
// same one every time, on every gateway.
func (r *Ring) Successors(flow uint64, max int) []int {
	if len(r.points) == 0 || max <= 0 {
		return nil
	}
	if max > len(r.members) {
		max = len(r.members)
	}
	out := make([]int, 0, max)
	seen := make(map[int]bool, max)
	start := r.search(mix64(flow))
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		o := r.owners[(start+i)%len(r.points)]
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// search returns the index of the first ring point >= h, wrapping to 0.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
