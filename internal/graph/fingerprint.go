package graph

import "fmt"

// Fingerprint returns a 64-bit FNV-1a hash over the graph's exact
// structure: the node count, edge count, and every edge in canonical
// orientation. Two graphs with identical adjacency always hash equally,
// so the value serves as a memoization key for derived quantities (e.g.
// cached query profiles). It is not cryptographic; collisions are
// possible but vanishingly unlikely within one benchmark run.
//
// The graph is immutable, so the walk runs once: the value is memoized
// in the graph (safe for concurrent callers), and a graph whose true
// fingerprint is 0 simply recomputes it.
func (g *Graph) Fingerprint() uint64 {
	if h := g.fp.Load(); h != 0 {
		return h
	}
	h := fnvGraph(g.n, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if int32(u) < v {
				h = fnvEdge(h, int32(u), v)
			}
		}
	}
	g.fp.Store(h)
	return h
}

// symmetricFingerprint is the Fingerprint walk of a payload that passed
// validateShape, checking on the way that every arc has its reverse. It
// needs no search: visiting u in ascending order, the lower entries
// (those below v) of row v must list exactly the u whose rows hold v,
// in that order. matched[v] counts the lower entries of row v consumed
// so far, and reaching row v itself checks that none was left over. The
// probe into row v overlaps the hash's multiply chain, so the check
// costs the walk little. On success the fingerprint is memoized, so a
// caller reads it with Fingerprint at no cost.
func (g *Graph) symmetricFingerprint() error {
	n := int32(g.n)
	matched := make([]int32, n)
	h := fnvGraph(g.n, g.m)
	for u := int32(0); u < n; u++ {
		lower := int32(0)
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if v < u {
				lower++
				continue
			}
			p := g.off[v] + int64(matched[v])
			if p >= g.off[v+1] || g.nbr[p] != u {
				return fmt.Errorf("graph: edge %d-%d not symmetric", u, v)
			}
			matched[v]++
			h = fnvEdge(h, u, v)
		}
		if lower != matched[u] {
			return fmt.Errorf("graph: node %d lists a neighbor that does not list it", u)
		}
	}
	g.fp.Store(h)
	return nil
}

const (
	fnvOffset64 = 1469598103934665603
	fnvPrime64  = 1099511628211
)

// fnvMix folds the eight bytes of x, low byte first, into FNV-1a state h.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// fnvGraph is the fingerprint state after the node and edge counts.
func fnvGraph(n, m int) uint64 {
	return fnvMix(fnvMix(fnvOffset64, uint64(n)), uint64(m))
}

// fnvEdge folds the canonical edge (u, v), u < v, into h.
func fnvEdge(h uint64, u, v int32) uint64 {
	return fnvMix(h, uint64(uint32(u))<<32|uint64(uint32(v)))
}
