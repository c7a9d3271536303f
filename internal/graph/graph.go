// Package graph provides the core undirected simple-graph type used
// throughout PGB: the input representation for every differentially private
// generation algorithm, and the output representation of every synthetic
// graph. Nodes are dense integer IDs in [0, N). The graph is simple:
// no self-loops, no parallel edges.
package graph

import (
	"fmt"
	"iter"
	"slices"
	"sync/atomic"
)

// Graph is an undirected simple graph over nodes 0..n-1, stored in CSR
// (compressed sparse row) form: one flat neighbor arena plus per-node
// offsets (DESIGN.md §8). Node u's sorted neighbors are
// nbr[off[u]:off[u+1]]. The flat layout keeps every adjacency scan on
// one contiguous allocation — the hot kernels (triangle counting, BFS)
// walk it cache-line by cache-line instead of chasing one pointer per
// node. Construction goes through FromEdges or EdgeSet (which
// deduplicate); a finished Graph is immutable by convention, which is
// what lets it memoize its own Fingerprint.
type Graph struct {
	n   int
	m   int
	off []int64       // len n+1; off[u]..off[u+1] delimits u's neighbors
	nbr []int32       // len 2m; concatenated sorted neighbor lists
	fp  atomic.Uint64 // memoized Fingerprint; 0 means not yet computed
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int32
}

// Canon returns the edge in canonical (U < V) orientation.
func Canon(u, v int32) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, off: make([]int64, n+1)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int32) int { return int(g.off[u+1] - g.off[u]) }

// Neighbors returns the sorted neighbor slice of u — a view into the
// shared CSR arena. The caller must not modify the returned slice.
func (g *Graph) Neighbors(u int32) []int32 { return g.nbr[g.off[u]:g.off[u+1]] }

// Offsets returns the CSR offset table: len n+1, with node u's
// neighbors spanning [Offsets()[u], Offsets()[u+1]) of the arena. It is
// exactly the degree prefix-sum, which work-sharding kernels use for
// mass-balanced chunking without rebuilding it. The caller must not
// modify the returned slice.
func (g *Graph) Offsets() []int64 { return g.off }

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int32) bool {
	if u < 0 || v < 0 || int(u) >= g.n || int(v) >= g.n || u == v {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.nbr[g.off[u]:g.off[u+1]], v)
	return found
}

// Edges returns all edges in canonical orientation, sorted.
func (g *Graph) Edges() []Edge {
	return g.EdgesAppend(make([]Edge, 0, g.m))
}

// EdgesAppend appends all edges in canonical orientation to dst and
// returns the extended slice — the allocation-free counterpart of Edges
// for callers that hold a reusable buffer.
func (g *Graph) EdgesAppend(dst []Edge) []Edge {
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if int32(u) < v {
				dst = append(dst, Edge{U: int32(u), V: v})
			}
		}
	}
	return dst
}

// EdgeSeq iterates the edges in canonical orientation, sorted, without
// materialising a slice. Exporters and generator construction loops
// range over it directly (and may break early) instead of allocating
// the full edge list per call.
func (g *Graph) EdgeSeq() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for u := 0; u < g.n; u++ {
			for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
				if int32(u) < v && !yield(Edge{U: int32(u), V: v}) {
					return
				}
			}
		}
	}
}

// Degrees returns the degree sequence indexed by node ID.
func (g *Graph) Degrees() []int {
	d := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		d[u] = int(g.off[u+1] - g.off[u])
	}
	return d
}

// MaxDegree returns the maximum degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := int(g.off[u+1] - g.off[u]); d > max {
			max = d
		}
	}
	return max
}

// Validate checks structural invariants: consistent offsets, sorted
// adjacency, symmetry, no self-loops, no duplicates, and consistent edge
// count, in two linear sweeps (validateShape, then the symmetric
// fingerprint walk, which memoizes the fingerprint on success). It is
// used by tests, by algorithm post-conditions and by every snapshot
// open (checkPayload).
func (g *Graph) Validate() error {
	if err := g.validateShape(); err != nil {
		return err
	}
	return g.symmetricFingerprint()
}

// validateShape checks the CSR-level invariants in a linear sweep:
// section lengths that agree with n and m, monotone in-bounds offsets,
// and every neighbor segment strictly increasing, in range and free of
// the node itself — everything but symmetry, which needs the
// fingerprint walk's cross-row probe.
func (g *Graph) validateShape() error {
	if len(g.off) != g.n+1 || g.off[0] != 0 || g.off[g.n] != int64(len(g.nbr)) || int(g.off[g.n]) != 2*g.m {
		return fmt.Errorf("graph: shape inconsistent (n=%d m=%d, %d offsets, %d arena entries)", g.n, g.m, len(g.off), len(g.nbr))
	}
	for u := 0; u < g.n; u++ {
		if g.off[u] > g.off[u+1] {
			return fmt.Errorf("graph: offsets decrease at node %d", u)
		}
	}
	n := int32(g.n)
	for u := int32(0); u < n; u++ {
		prev := int32(-1)
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if v <= prev || v >= n || v == u {
				switch {
				case v < 0 || v >= n:
					return fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, v)
				case v == u:
					return fmt.Errorf("graph: self-loop at node %d", u)
				}
				return fmt.Errorf("graph: adjacency of node %d unsorted or duplicated at %d", u, v)
			}
			prev = v
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{n=%d, m=%d}", g.n, g.m)
}

// FromEdges constructs a graph with n nodes from an edge list, dropping
// self-loops, duplicates, and out-of-range endpoints. It builds the CSR
// arena directly — count, scatter, transpose, in-place dedup — with no
// per-node maps and no comparison sort, so it is the cheap path for
// generators that already hold an edge list.
//
// The sort is two of Gustavson's permuted transpositions ("Two fast
// algorithms for sparse matrices", ACM TOMS 1978): visiting rows x in
// ascending order and appending x to row y for every y in row x leaves
// every row of the transpose in ascending order. Each edge is scattered
// once, unsorted, into the upper half (its smaller end's row lists its
// larger end); transposing that fills each row's lower part (its
// neighbors below it) sorted, and transposing the lower parts fills the
// upper parts sorted. Row u is then lower ++ upper: sorted, duplicates
// adjacent.
func FromEdges(n int, edges []Edge) *Graph {
	if n < 0 {
		n = 0
	}
	keep := func(e Edge) bool {
		return e.U != e.V && e.U >= 0 && e.V >= 0 && int(e.U) < n && int(e.V) < n
	}
	off := make([]int64, n+1) // degrees, then row starts
	up := make([]int64, n+1)  // upper degrees, then upper-half row starts
	for _, e := range edges {
		if keep(e) {
			off[e.U+1]++
			off[e.V+1]++
			up[min(e.U, e.V)+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
		up[u+1] += up[u]
	}
	half := make([]int32, up[n])
	pos := make([]int64, n)
	copy(pos, up[:n])
	for _, e := range edges {
		if keep(e) {
			u := min(e.U, e.V)
			half[pos[u]] = max(e.U, e.V)
			pos[u]++
		}
	}
	nbr := make([]int32, off[n])
	copy(pos, off[:n])
	for x := 0; x < n; x++ {
		for _, y := range half[up[x]:up[x+1]] {
			nbr[pos[y]] = int32(x)
			pos[y]++
		}
	}
	// pos[x] now ends row x's lower part. Reading it happens before any
	// write into row x, which come only from rows above x.
	for x := 0; x < n; x++ {
		for _, w := range nbr[off[x]:pos[x]] {
			nbr[pos[w]] = int32(x)
			pos[w]++
		}
	}
	// Dedup each sorted row in place, compacting the arena left; the
	// write cursor never overtakes the read position, and off[u+1] is
	// only rewritten after row u+1 has been consumed.
	w := int64(0)
	for u := 0; u < n; u++ {
		start := w
		prev := int32(-1)
		for _, v := range nbr[off[u]:off[u+1]] {
			if v != prev {
				nbr[w] = v
				w++
				prev = v
			}
		}
		off[u] = start
	}
	off[n] = w
	return &Graph{n: n, m: int(w / 2), off: off, nbr: nbr[:w:w]}
}

// EdgeSet accumulates distinct undirected edges with O(1) membership
// probes — the cheap mutable companion of FromEdges for generator loops
// whose control flow (rejection sampling, rewiring, budget checks)
// depends on which edges exist so far. Membership lives in one flat
// open-addressing table of packed canonical pairs (linear probing,
// SplitMix64-finalized hash), so a probe touches one or two cache lines
// and the set allocates nothing per edge. The table is the only copy of
// the edges: Build reads them back out of it, in slot order, which
// FromEdges makes immaterial. A set made by NewEdgeSetOver starts out
// holding a graph's edges without copying or hashing them. Semantics
// match FromEdges: self-loops, duplicates, and out-of-range endpoints
// are silently dropped.
type EdgeSet struct {
	n     int
	base  *Graph   // edges held from the start (NewEdgeSetOver), or nil
	slots []uint64 // packed canonical pairs; 0 marks an empty slot
	size  int      // keys in slots
}

// NewEdgeSet returns an EdgeSet over n nodes; capHint sizes the
// internal table (0 is fine: the table grows on demand).
func NewEdgeSet(n, capHint int) *EdgeSet {
	if n < 0 {
		n = 0
	}
	sz := 16 // a power of two holding capHint keys at load at most 1/2
	for sz < 2*capHint {
		sz <<= 1
	}
	return &EdgeSet{n: n, slots: make([]uint64, sz)}
}

// NewEdgeSetOver returns an EdgeSet over g's nodes that starts out
// holding g's edges, with room for capHint more. g's edges are neither
// copied nor hashed: probes ask g.HasEdge first, and Build merges them
// in, so seeding costs nothing however large g is.
func NewEdgeSetOver(g *Graph, capHint int) *EdgeSet {
	s := NewEdgeSet(g.N(), capHint)
	s.base = g
	return s
}

// packEdge packs the canonical orientation of {u, v}, u != v, into one
// key. The larger endpoint is at least 1, so a key is never 0.
func packEdge(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// slot returns the index of key in s.slots, or of the empty slot where
// its probe sequence ends.
func (s *EdgeSet) slot(key uint64) uint64 {
	h := key // SplitMix64 finalizer
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 && s.slots[i] != key {
		i = (i + 1) & mask
	}
	return i
}

func (s *EdgeSet) valid(u, v int32) bool {
	return u >= 0 && v >= 0 && int(u) < s.n && int(v) < s.n && u != v
}

// inBase reports whether {u, v}, a valid pair, is one of base's edges.
func (s *EdgeSet) inBase(u, v int32) bool {
	return s.base != nil && s.base.HasEdge(u, v)
}

// Add inserts the undirected edge {u, v}, ignoring self-loops,
// duplicates, and out-of-range endpoints, and reports whether the edge
// was new — so a rejection loop needs no membership probe before it.
func (s *EdgeSet) Add(u, v int32) bool {
	if !s.valid(u, v) || s.inBase(u, v) {
		return false
	}
	key := packEdge(u, v)
	i := s.slot(key)
	if s.slots[i] == key {
		return false
	}
	if 2*(s.size+1) > len(s.slots) {
		s.grow()
		i = s.slot(key)
	}
	s.slots[i] = key
	s.size++
	return true
}

// grow doubles the table and reinserts every key.
func (s *EdgeSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	for _, key := range old {
		if key != 0 {
			s.slots[s.slot(key)] = key
		}
	}
}

// M returns the number of distinct edges held so far.
func (s *EdgeSet) M() int {
	if s.base != nil {
		return s.base.M() + s.size
	}
	return s.size
}

// Build finalizes the held edges into an immutable CSR Graph.
func (s *EdgeSet) Build() *Graph {
	edges := make([]Edge, 0, s.M())
	if s.base != nil {
		edges = s.base.EdgesAppend(edges)
	}
	for _, key := range s.slots {
		if key != 0 {
			edges = append(edges, Edge{U: int32(key >> 32), V: int32(uint32(key))})
		}
	}
	return FromEdges(s.n, edges)
}

// LargestComponent returns the node set of the largest connected
// component (the first found, on a tie) in breadth-first order from its
// smallest node, or nil for an empty graph.
func (g *Graph) LargestComponent() []int32 {
	seen := make([]bool, g.n)
	order := make([]int32, 0, g.n) // each component's BFS order, back to back
	var best []int32
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		start := len(order)
		order = append(order, int32(s))
		for head := start; head < len(order); head++ {
			for _, v := range g.Neighbors(order[head]) {
				if !seen[v] {
					seen[v] = true
					order = append(order, v)
				}
			}
		}
		if len(order)-start > len(best) {
			best = order[start:len(order):len(order)]
		}
	}
	return best
}
