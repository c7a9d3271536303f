// Package graph provides the core undirected simple-graph type used
// throughout PGB: the input representation for every differentially private
// generation algorithm, and the output representation of every synthetic
// graph. Nodes are dense integer IDs in [0, N). The graph is simple:
// no self-loops, no parallel edges.
package graph

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
)

// Graph is an undirected simple graph over nodes 0..n-1, stored in CSR
// (compressed sparse row) form: one flat neighbor arena plus per-node
// offsets (DESIGN.md §8). Node u's sorted neighbors are
// nbr[off[u]:off[u+1]]. The flat layout keeps every adjacency scan on
// one contiguous allocation — the hot kernels (triangle counting, BFS)
// walk it cache-line by cache-line instead of chasing one pointer per
// node. Construction goes through Builder or FromEdges (which
// deduplicate); a finished Graph is immutable by convention.
type Graph struct {
	n   int
	m   int
	off []int64 // len n+1; off[u]..off[u+1] delimits u's neighbors
	nbr []int32 // len 2m; concatenated sorted neighbor lists
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
	a := g.nbr[g.off[u]:g.off[u+1]]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
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

// Density returns 2m / (n(n-1)), the fraction of possible edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return 2 * float64(g.m) / (float64(g.n) * float64(g.n-1))
}

// Validate checks structural invariants: consistent offsets, sorted
// adjacency, symmetry, no self-loops, no duplicates, and consistent edge
// count. It is used by tests and by algorithm post-conditions.
func (g *Graph) Validate() error {
	if len(g.off) != g.n+1 {
		return fmt.Errorf("graph: offset table has %d entries for %d nodes", len(g.off), g.n)
	}
	if g.off[0] != 0 || g.off[g.n] != int64(len(g.nbr)) {
		return fmt.Errorf("graph: offset bounds [%d, %d] inconsistent with arena size %d", g.off[0], g.off[g.n], len(g.nbr))
	}
	for u := 0; u < g.n; u++ {
		if g.off[u] > g.off[u+1] {
			return fmt.Errorf("graph: offsets decrease at node %d", u)
		}
		prev := int32(-1)
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, v)
			}
			if v == int32(u) {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: adjacency of node %d unsorted or duplicated at %d", u, v)
			}
			if !g.HasEdge(v, int32(u)) {
				return fmt.Errorf("graph: edge %d-%d not symmetric", u, v)
			}
			prev = v
		}
	}
	if int(g.off[g.n]) != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency size %d", g.m, g.off[g.n])
	}
	return nil
}

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{n=%d, m=%d}", g.n, g.m)
}

// ErrNodeRange is returned by Builder.AddEdge for out-of-range endpoints.
var ErrNodeRange = errors.New("graph: node index out of range")

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are silently dropped, so algorithm construction
// stages can emit candidate edges freely.
type Builder struct {
	n   int
	adj []map[int32]struct{}
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, adj: make([]map[int32]struct{}, n)}
	return b
}

// N returns the number of nodes the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge inserts the undirected edge {u, v}, ignoring self-loops and
// duplicates. Returns ErrNodeRange if an endpoint is out of range.
func (b *Builder) AddEdge(u, v int32) error {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return ErrNodeRange
	}
	if u == v {
		return nil
	}
	if b.adj[u] == nil {
		b.adj[u] = make(map[int32]struct{})
	}
	if b.adj[v] == nil {
		b.adj[v] = make(map[int32]struct{})
	}
	b.adj[u][v] = struct{}{}
	b.adj[v][u] = struct{}{}
	return nil
}

// HasEdge reports whether {u, v} has been added.
func (b *Builder) HasEdge(u, v int32) bool {
	if u < 0 || int(u) >= b.n || b.adj[u] == nil {
		return false
	}
	_, ok := b.adj[u][v]
	return ok
}

// M returns the current number of distinct edges.
func (b *Builder) M() int {
	half := 0
	for _, s := range b.adj {
		half += len(s)
	}
	return half / 2
}

// Degree returns the current degree of node u.
func (b *Builder) Degree(u int32) int {
	if u < 0 || int(u) >= b.n {
		return 0
	}
	return len(b.adj[u])
}

// Build finalizes the builder into an immutable CSR Graph.
func (b *Builder) Build() *Graph {
	off := make([]int64, b.n+1)
	for u := 0; u < b.n; u++ {
		off[u+1] = off[u] + int64(len(b.adj[u]))
	}
	nbr := make([]int32, off[b.n])
	for u := 0; u < b.n; u++ {
		if len(b.adj[u]) == 0 {
			continue
		}
		seg := nbr[off[u]:off[u]:off[u+1]]
		for v := range b.adj[u] {
			seg = append(seg, v)
		}
		slices.Sort(seg)
	}
	return &Graph{n: b.n, m: int(off[b.n] / 2), off: off, nbr: nbr}
}

// FromEdges constructs a graph with n nodes from an edge list, dropping
// self-loops, duplicates, and out-of-range endpoints. It builds the CSR
// arena directly — count, scatter, per-node sort, in-place dedup — with
// no per-node maps, so it is the cheap path for generators that already
// hold an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	if n < 0 {
		n = 0
	}
	keep := func(e Edge) bool {
		return e.U != e.V && e.U >= 0 && e.V >= 0 && int(e.U) < n && int(e.V) < n
	}
	off := make([]int64, n+1)
	for _, e := range edges {
		if keep(e) {
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	nbr := make([]int32, off[n])
	pos := make([]int64, n)
	copy(pos, off[:n])
	for _, e := range edges {
		if keep(e) {
			nbr[pos[e.U]] = e.V
			pos[e.U]++
			nbr[pos[e.V]] = e.U
			pos[e.V]++
		}
	}
	// Sort each node's segment and dedup in place, compacting the arena
	// left; the write cursor never overtakes the read position, and
	// off[u+1] is only rewritten after segment u+1 has been consumed.
	w := int64(0)
	for u := 0; u < n; u++ {
		seg := nbr[off[u]:off[u+1]]
		slices.Sort(seg)
		start := w
		prev := int32(-1)
		for _, v := range seg {
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
// probes, backed by one hash set keyed on the packed canonical pair plus
// a flat edge list — the cheap mutable companion of FromEdges for
// generator loops whose control flow (rejection sampling, rewiring,
// budget checks) depends on which edges exist so far. Compared to
// Builder it allocates one map instead of one per node, and Build goes
// through the direct-CSR FromEdges path. Semantics match Builder
// exactly: self-loops, duplicates, and out-of-range endpoints are
// silently dropped.
type EdgeSet struct {
	n     int
	set   map[uint64]struct{}
	edges []Edge
}

// NewEdgeSet returns an EdgeSet over n nodes; capHint sizes the
// internal set and edge list (0 is fine).
func NewEdgeSet(n, capHint int) *EdgeSet {
	if n < 0 {
		n = 0
	}
	if capHint < 0 {
		capHint = 0
	}
	return &EdgeSet{
		n:     n,
		set:   make(map[uint64]struct{}, capHint),
		edges: make([]Edge, 0, capHint),
	}
}

func packEdge(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Has reports whether the undirected edge {u, v} has been added.
func (s *EdgeSet) Has(u, v int32) bool {
	if u < 0 || v < 0 || int(u) >= s.n || int(v) >= s.n || u == v {
		return false
	}
	_, ok := s.set[packEdge(u, v)]
	return ok
}

// Add inserts the undirected edge {u, v}, ignoring self-loops,
// duplicates, and out-of-range endpoints, and reports whether the edge
// was new.
func (s *EdgeSet) Add(u, v int32) bool {
	if u < 0 || v < 0 || int(u) >= s.n || int(v) >= s.n || u == v {
		return false
	}
	key := packEdge(u, v)
	if _, dup := s.set[key]; dup {
		return false
	}
	s.set[key] = struct{}{}
	s.edges = append(s.edges, Canon(u, v))
	return true
}

// M returns the number of distinct edges added so far.
func (s *EdgeSet) M() int { return len(s.edges) }

// Build finalizes the accumulated edges into an immutable CSR Graph.
func (s *EdgeSet) Build() *Graph { return FromEdges(s.n, s.edges) }

// Subgraph returns the induced subgraph on the given nodes, relabelled to
// 0..len(nodes)-1 in the given order.
func (g *Graph) Subgraph(nodes []int32) *Graph {
	idx := make(map[int32]int32, len(nodes))
	for i, u := range nodes {
		idx[u] = int32(i)
	}
	var edges []Edge
	for i, u := range nodes {
		for _, v := range g.Neighbors(u) {
			if j, ok := idx[v]; ok {
				edges = append(edges, Canon(int32(i), j))
			}
		}
	}
	return FromEdges(len(nodes), edges)
}

// LargestComponent returns the node set of the largest connected component.
func (g *Graph) LargestComponent() []int32 {
	comp := g.Components()
	best := 0
	for i := range comp {
		if len(comp[i]) > len(comp[best]) {
			best = i
		}
	}
	if len(comp) == 0 {
		return nil
	}
	return comp[best]
}

// Components returns the connected components as node-ID slices.
func (g *Graph) Components() [][]int32 {
	seen := make([]bool, g.n)
	var comps [][]int32
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = queue[:0]
		queue = append(queue, int32(s))
		comp := []int32{int32(s)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
					comp = append(comp, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
