package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// DefaultReplicas is the virtual-node count per physical node. 128 points
// per node keeps the ownership spread within a few percent of uniform for
// small fleets while the ring stays tiny (a 16-node fleet is 2048 points).
const DefaultReplicas = 128

// hash64 maps a string to a point on the ring: the first 8 bytes of its
// SHA-256, big endian. SHA-256 keeps the placement identical on every
// platform and matches the job-key hash family, so ownership is a pure
// function of (node names, replicas, key) — the golden test pins it.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// ringPoint is one virtual node.
type ringPoint struct {
	h    uint64
	node string
}

// Ring is an immutable consistent-hash ring with virtual nodes. A key is
// owned by the first point clockwise from its hash; Candidates enumerates
// distinct nodes in that clockwise order, which is the shared failover and
// peer-fill order everywhere in the fleet. Membership changes (join, leave)
// build a new Ring — rebalancing moves only the keys whose arc changed
// hands, ~K/N of them.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	nodes    []string    // sorted unique node names
}

// NewRing builds a ring over the given node names with the given virtual-
// node count per node (DefaultReplicas when <= 0). Names must be unique,
// non-empty and well-formed.
func NewRing(replicas int, nodes []string) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one node")
	}
	seen := map[string]bool{}
	r := &Ring{
		replicas: replicas,
		points:   make([]ringPoint, 0, replicas*len(nodes)),
		nodes:    make([]string, 0, len(nodes)),
	}
	for _, n := range nodes {
		if !NodeNameRE.MatchString(n) {
			return nil, fmt.Errorf("fleet: bad node name %q (want %s)", n, NodeNameRE)
		}
		if seen[n] {
			return nil, fmt.Errorf("fleet: duplicate node %q on ring", n)
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{h: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Hash ties (vanishingly rare) break on node name so the order —
		// and therefore ownership — stays deterministic.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// start returns the index of the first ring point clockwise from key.
func (r *Ring) start(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return i
}

// Lookup returns key's owning node.
func (r *Ring) Lookup(key string) string {
	return r.points[r.start(key)].node
}

// Candidates returns up to max distinct nodes in clockwise ring order
// starting at key's owner (max <= 0 means all). The first entry is the
// owner; the rest are the failover / peer-fill order.
func (r *Ring) Candidates(key string, max int) []string {
	if max <= 0 || max > len(r.nodes) {
		max = len(r.nodes)
	}
	out := make([]string, 0, max)
	seen := map[string]bool{}
	start := r.start(key)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Ownership returns the fraction of the hash space each node owns — the
// distribution the coordinator exposes as fleet.node.<name>.ownership.
// Fractions sum to 1.
func (r *Ring) Ownership() map[string]float64 {
	out := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return out
	}
	// Point i owns the arc (points[i-1].h, points[i].h]; the first point
	// also owns the wrap-around arc from the last point.
	const whole = float64(math.MaxUint64) + 1
	prev := r.points[len(r.points)-1].h
	for i, p := range r.points {
		var arc uint64
		if i == 0 {
			arc = p.h + (math.MaxUint64 - prev) + 1 // wraps
		} else {
			arc = p.h - prev
		}
		out[p.node] += float64(arc) / whole
		prev = p.h
	}
	return out
}
