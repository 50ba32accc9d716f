package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes: each member owns
// vnodes pseudo-randomly placed points on a 64-bit circle, and a key
// belongs to the member owning the first point clockwise of the key's
// hash. Adding or removing one member moves only ~1/n of the key space,
// so a rolling membership change re-prepares a fraction of the warm
// cache instead of all of it.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	points []ringPoint
	nodes  []string // sorted members
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given member identities (deduplicated,
// sorted) with vnodes virtual nodes each (minimum 1).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	seen := map[string]bool{}
	var uniq []string
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on the member id so every node sorts identically and
		// the ring stays consistent across the cluster.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// ringHash is FNV-64a followed by splitmix64's finalizer. FNV is stable
// across processes, architectures and Go versions, which is what keeps
// independently built rings identical on every member; but it barely
// moves the high bits of ids that differ only in their last bytes
// ("http://127.0.0.1:PORT#i"), so without the finalizer the vnodes of
// members that differ only by port cluster on the circle.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Owner returns the member owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point clockwise of the top of the circle
	}
	return r.points[i].node
}

// Nodes returns the sorted members.
func (r *Ring) Nodes() []string { return r.nodes }

// Layout returns each member's virtual-node count — the ops view of the
// ring (every member has the same count by construction; the map shape
// keeps /debug/cluster future-proof for weighted members).
func (r *Ring) Layout() map[string]int {
	out := make(map[string]int, len(r.nodes))
	for _, p := range r.points {
		out[p.node]++
	}
	return out
}
