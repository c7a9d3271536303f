package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("New(5): got n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewNegative(t *testing.T) {
	g := New(-3)
	if g.N() != 0 {
		t.Fatalf("New(-3) n = %d, want 0", g.N())
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	want := []int{3, 2, 2, 1}
	got := g.Degrees()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degree[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	nb := g.Neighbors(0)
	if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
		t.Fatal("neighbors not sorted")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	if g.HasEdge(0, 5) || g.HasEdge(-1, 0) || g.HasEdge(1, 1) {
		t.Fatal("out-of-range or self query should be false")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := FromEdges(4, []Edge{{2, 1}, {3, 0}})
	for _, e := range g.Edges() {
		if e.U >= e.V {
			t.Fatalf("edge %v not canonical", e)
		}
	}
	if len(g.Edges()) != 2 {
		t.Fatalf("edges = %d, want 2", len(g.Edges()))
	}
}

func TestCanon(t *testing.T) {
	if Canon(3, 1) != (Edge{1, 3}) || Canon(1, 3) != (Edge{1, 3}) {
		t.Fatal("Canon broken")
	}
}

// Components returns the connected components as node-ID slices, each
// in breadth-first order from its smallest node: the reference
// LargestComponent is checked against.
func (g *Graph) Components() [][]int32 {
	seen := make([]bool, g.n)
	var comps [][]int32
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		comp := []int32{int32(s)}
		for head := 0; head < len(comp); head++ {
			for _, v := range g.Neighbors(comp[head]) {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func TestComponents(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	comps := g.Components()
	if len(comps) != 3 { // {0,1,2}, {3,4}, {5}
		t.Fatalf("components = %d, want 3", len(comps))
	}
	lc := g.LargestComponent()
	if len(lc) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(lc))
	}
	if New(0).LargestComponent() != nil {
		t.Fatal("empty graph has a largest component")
	}

	// LargestComponent is the first largest of Components, node for node.
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN % 60)
		edges := make([]Edge, n)
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		g := FromEdges(n, edges)
		var want []int32
		for _, c := range g.Components() {
			if len(c) > len(want) {
				want = c
			}
		}
		return slices.Equal(g.LargestComponent(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	g.nbr[0] = 2 // node 0 now lists neighbor 2, but 2 does not list 0
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric graph")
	}
}

// property: any random edge list yields a valid graph with degree sum 2m.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%50) + 2
		rng := rand.New(rand.NewSource(seed))
		edges := make([]Edge, 3*n)
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		g := FromEdges(n, edges)
		if g.Validate() != nil {
			return false
		}
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// property: the direct-CSR FromEdges path is equivalent to the
// map-per-node reference construction (referenceGraph) for any
// edge-list permutation and orientation: identical Neighbors, HasEdge,
// Edges, and Fingerprint.
func TestQuickFromEdgesPermutationInvariant(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%40) + 2
		// candidate edges with self-loops, duplicates, and out-of-range
		// endpoints mixed in — all must be dropped identically
		edges := make([]Edge, 0, 4*n)
		for i := 0; i < 4*n; i++ {
			u := int32(rng.Intn(n+2) - 1) // may be -1 or n (out of range)
			v := int32(rng.Intn(n+2) - 1)
			edges = append(edges, Edge{U: u, V: v})
		}
		ref := referenceGraph(n, edges)

		perm := append([]Edge(nil), edges...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := range perm {
			if rng.Intn(2) == 0 { // random orientation
				perm[i].U, perm[i].V = perm[i].V, perm[i].U
			}
		}
		g := FromEdges(n, perm)

		if g.Validate() != nil || g.N() != ref.N() || g.M() != ref.M() {
			return false
		}
		if g.Fingerprint() != ref.Fingerprint() {
			return false
		}
		for u := int32(0); int(u) < n; u++ {
			a, c := g.Neighbors(u), ref.Neighbors(u)
			if len(a) != len(c) {
				return false
			}
			for i := range a {
				if a[i] != c[i] {
					return false
				}
			}
			for v := int32(0); int(v) < n; v++ {
				if g.HasEdge(u, v) != ref.HasEdge(u, v) {
					return false
				}
			}
		}
		ge, re := g.Edges(), ref.Edges()
		if len(ge) != len(re) {
			return false
		}
		for i := range ge {
			if ge[i] != re[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// EdgesAppend and EdgeSeq must agree with Edges, and EdgesAppend must
// extend the destination in place.
func TestEdgesAppendAndSeq(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	want := g.Edges()

	buf := make([]Edge, 0, 16)
	buf = append(buf, Edge{U: 9, V: 9}) // sentinel prefix preserved
	got := g.EdgesAppend(buf)
	if len(got) != len(want)+1 || got[0] != (Edge{U: 9, V: 9}) {
		t.Fatalf("EdgesAppend broke the destination prefix: %v", got)
	}
	for i, e := range want {
		if got[i+1] != e {
			t.Fatalf("EdgesAppend[%d] = %v, want %v", i+1, got[i+1], e)
		}
	}

	var seq []Edge
	for e := range g.EdgeSeq() {
		seq = append(seq, e)
	}
	if len(seq) != len(want) {
		t.Fatalf("EdgeSeq yielded %d edges, want %d", len(seq), len(want))
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("EdgeSeq[%d] = %v, want %v", i, seq[i], want[i])
		}
	}

	// early break must not panic or over-yield
	count := 0
	for range g.EdgeSeq() {
		count++
		if count == 2 {
			break
		}
	}
	if count != 2 {
		t.Fatalf("EdgeSeq early break yielded %d", count)
	}
}

// property: HasEdge agrees with the edge list.
func TestQuickHasEdgeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		edges := make([]Edge, 30)
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		g := FromEdges(n, edges)
		set := map[Edge]bool{}
		for _, e := range g.Edges() {
			set[e] = true
		}
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				if g.HasEdge(u, v) != set[Edge{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// property: EdgeSet matches a map of canonical pairs step for step —
// the same Has answers before and after every Add (the generator
// control-flow contract), Add reporting exactly the new edges, the
// same M, and a built graph identical to the reference graph of the
// edges the map holds — for arbitrary candidate streams with
// self-loops, duplicates, and out-of-range endpoints.
func TestQuickEdgeSetMatchesMap(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%40) + 2
		ref := map[Edge]bool{}
		var held []Edge
		s := NewEdgeSet(n, 0)
		for i := 0; i < 6*n; i++ {
			u := int32(rng.Intn(n+2) - 1)
			v := int32(rng.Intn(n+2) - 1)
			valid := u != v && u >= 0 && v >= 0 && int(u) < n && int(v) < n
			e := Canon(u, v)
			if s.Has(u, v) != (valid && ref[e]) {
				return false
			}
			wasNew := valid && !ref[e]
			if s.Add(u, v) != wasNew {
				return false
			}
			if wasNew {
				ref[e] = true
				held = append(held, e)
			}
			if s.Has(u, v) != valid || s.M() != len(ref) {
				return false
			}
		}
		return s.Build().Fingerprint() == referenceGraph(n, held).Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
