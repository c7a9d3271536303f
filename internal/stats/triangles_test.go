package stats

import (
	"testing"

	"pgb/internal/graph"
)

// raceEnabled is set under the race detector, whose sync.Pool drops
// items at random, so pooled kernels cannot promise zero allocations.
var raceEnabled bool

// markPerNodeRef is the classic mark-array triangle walk the
// degree-ordered kernel replaced, extended to corners: for each root u,
// mark N(u), then walk ordered wedges u < v < w and probe the mark; each
// triangle found credits u, v and w. Exact and independent of the
// production code path (no rank space, no orientation, no stamps), so
// it serves as the equality oracle for every triangle query.
func markPerNodeRef(g *graph.Graph) []int64 {
	n := g.N()
	mark := make([]bool, n)
	cnt := make([]int64, n)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			mark[v] = true
		}
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w > v && mark[w] {
					cnt[u]++
					cnt[v]++
					cnt[w]++
				}
			}
		}
		for _, v := range g.Neighbors(u) {
			mark[v] = false
		}
	}
	return cnt
}

// markTrianglesRef is the mark-array triangle count: every triangle
// credits three corners.
func markTrianglesRef(g *graph.Graph) int64 {
	var c int64
	for _, x := range markPerNodeRef(g) {
		c += x
	}
	return c / 3
}

// triangleRef holds every triangle query of a graph, computed from
// markPerNodeRef with the production formulas applied to the same
// integers in the same node order, so comparisons are exact.
type triangleRef struct {
	cnt              []int64   // per node
	cc               []float64 // local clustering coefficients
	tri, wedges, acc float64
}

func refTriangles(g *graph.Graph) triangleRef {
	r := triangleRef{cnt: markPerNodeRef(g), cc: make([]float64, g.N())}
	sum := 0.0
	for u, c := range r.cnt {
		d := float64(g.Degree(int32(u)))
		r.wedges += d * (d - 1) / 2
		if d >= 2 {
			r.cc[u] = 2 * float64(c) / (d * (d - 1))
			sum += r.cc[u]
		}
	}
	r.tri = float64(markTrianglesRef(g))
	if g.N() > 0 {
		r.acc = sum / float64(g.N())
	}
	return r
}

// assertTrianglesMatchRef checks the one triangle driver's per-node
// counts and all three public triangle queries on g at workers against
// the reference.
func assertTrianglesMatchRef(t *testing.T, label string, g *graph.Graph, workers int) {
	t.Helper()
	want := refTriangles(g)
	s := getScratch()
	cnt, rank := perNodeTriangles(g, s, workers, nil)
	for u, c := range want.cnt {
		if cnt[rank[u]] != c {
			s.Release()
			t.Fatalf("%s workers %d: node %d in %d triangles, reference %d", label, workers, u, cnt[rank[u]], c)
		}
	}
	s.Release()
	if got := TrianglesParallel(g, workers, nil); got != want.tri {
		t.Fatalf("%s workers %d: TrianglesParallel = %g, reference %g", label, workers, got, want.tri)
	}
	cc := LocalClusteringParallel(g, workers, nil)
	for u := range cc {
		if cc[u] != want.cc[u] {
			t.Fatalf("%s workers %d: cc[%d] = %g, reference %g", label, workers, u, cc[u], want.cc[u])
		}
	}
	if tri, wedges, acc := TriangleProfileParallel(g, workers, nil); tri != want.tri || wedges != want.wedges || acc != want.acc {
		t.Fatalf("%s workers %d: triangle profile (%g, %g, %g), reference (%g, %g, %g)",
			label, workers, tri, wedges, acc, want.tri, want.wedges, want.acc)
	}
}

// The stamped forward pass must agree exactly with the mark-array
// oracle on arbitrary graphs — triangle counts are integers, so
// equality is exact, never approximate.
func TestTrianglesMatchMarkReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, n := range []int{50, 200, 500} {
			g := randomGraph(seed, n)
			for _, workers := range []int{1, 4} {
				assertTrianglesMatchRef(t, "random", g, workers)
			}
		}
	}
	// Degenerate shapes the random generator rarely produces.
	for _, g := range []*graph.Graph{k4(), path5(), star(6), graph.FromEdges(0, nil), graph.FromEdges(3, nil)} {
		assertTrianglesMatchRef(t, "degenerate", g, 1)
	}
}

func FuzzTrianglesMatchReference(f *testing.F) {
	for _, c := range degenerateGraphs() {
		f.Add(encodeGraph(c.g))
	}
	f.Add(encodeGraph(k4()))
	f.Add(encodeGraph(randomGraph(5, 65)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		for _, workers := range []int{1, 3} {
			assertTrianglesMatchRef(t, "fuzz", g, workers)
		}
	})
}

// The serial triangle pass draws every array from the caller's pooled
// Scratch, so once the pool is warm a call allocates nothing.
func TestTrianglesSerialZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := randomGraph(8, 300)
	if a := testing.AllocsPerRun(20, func() { TrianglesParallel(g, 1, nil) }); a != 0 {
		t.Errorf("TrianglesParallel(workers=1): %g allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { TriangleProfileParallel(g, 1, nil) }); a != 0 {
		t.Errorf("TriangleProfileParallel(workers=1): %g allocs/op, want 0", a)
	}
}
