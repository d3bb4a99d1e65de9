package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash placement of client ids over node
// indexes. Every node replicates the full database, so the ring
// places LOAD, not data: a router sends each client's transactions to
// one deterministic owner, which keeps that client's per-record lock,
// pending challenges, and relay streams on one node, and spreads the
// fleet evenly when nodes come and go (only ~1/N of clients move per
// membership change — the consistent-hashing property).
type Ring struct {
	points []ringPoint
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int
}

// vnodes is the virtual-node count per physical node; enough for <2%
// placement skew at small N.
const vnodes = 64

// NewRing builds a ring over nodes node indexes with vnodes virtual
// points each.
func NewRing(nodes int) *Ring {
	if nodes < 1 {
		nodes = 1
	}
	r := &Ring{points: make([]ringPoint, 0, nodes*vnodes), nodes: nodes}
	for n := 0; n < nodes; n++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("node-%d/vnode-%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Nodes returns the node count the ring was built over.
func (r *Ring) Nodes() int { return r.nodes }

// Owner returns the node index owning id: the first ring point at or
// after the id's hash, wrapping at the top.
func (r *Ring) Owner(id string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := hash64(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Owners returns up to k distinct node indexes in ring order starting
// at the point owning id: the owner first, then the successors a
// hedged read fails over to. Successor order is a property of the id,
// so hedges for one client always land on the same fallback node and
// its caches/locks stay warm there. k is clamped to the node count.
func (r *Ring) Owners(id string, k int) []int {
	if k > r.nodes {
		k = r.nodes
	}
	if k < 1 {
		k = 1
	}
	out := make([]int, 0, k)
	if len(r.points) == 0 {
		return append(out, 0)
	}
	h := hash64(id)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for step := 0; step < len(r.points) && len(out) < k; step++ {
		node := r.points[(start+step)%len(r.points)].node
		dup := false
		for _, n := range out {
			if n == node {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, node)
		}
	}
	return out
}

// hash64 is FNV-64a with a splitmix64 finalizer. Raw FNV over short,
// similar strings ("node-0/vnode-1", ...) leaves the low bits too
// correlated for even ring placement; the finalizer scatters them.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
