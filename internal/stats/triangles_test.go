package stats

import (
	"math/rand"
	"sort"
	"testing"

	"pgb/internal/graph"
)

// markTrianglesRef is the classic mark-array triangle count the
// degree-ordered intersection kernel replaced: for each root u, mark
// N(u), then walk ordered wedges u < v < w and probe the mark. Exact
// and independent of the production code path, so it serves as the
// equality oracle.
func markTrianglesRef(g *graph.Graph) int64 {
	n := g.N()
	mark := make([]bool, n)
	var total int64
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
					total++
				}
			}
		}
		for _, v := range g.Neighbors(u) {
			mark[v] = false
		}
	}
	return total
}

// Degree-ordered intersection counting must agree exactly with the
// mark-array oracle on arbitrary graphs — triangle counts are integers,
// so equality is exact, never approximate.
func TestTrianglesMatchMarkReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, n := range []int{50, 200, 500} {
			g := randomGraph(seed, n)
			want := markTrianglesRef(g)
			for _, workers := range []int{1, 4} {
				if got := TrianglesParallel(g, workers, nil); got != float64(want) {
					t.Errorf("seed %d n %d workers %d: TrianglesParallel = %g, mark reference = %d", seed, n, workers, got, want)
				}
			}
		}
	}
	// Degenerate shapes the random generator rarely produces.
	for _, g := range []*graph.Graph{k4(), path5(), star(6), graph.FromEdges(0, nil), graph.FromEdges(3, nil)} {
		if got, want := TrianglesParallel(g, 1, nil), markTrianglesRef(g); got != float64(want) {
			t.Errorf("degenerate graph: TrianglesParallel = %g, mark reference = %d", got, want)
		}
	}
}

// probeRef is |a ∩ b| by map lookup — the oracle for the branchless
// binary-search intersection.
func probeRef(a, b []int32) int64 {
	set := make(map[int32]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	var c int64
	for _, x := range a {
		if set[x] {
			c++
		}
	}
	return c
}

// sortedUnique decodes a byte stream into a strictly increasing int32
// slice — the shape probeCount's inputs always have (CSR neighbor
// segments are sorted and duplicate-free).
func sortedUnique(data []byte) []int32 {
	vals := make([]int32, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		vals = append(vals, int32(data[i])<<8|int32(data[i+1]))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func FuzzProbeCount(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3}, []byte{0, 2, 0, 4})
	f.Add([]byte{0, 0}, []byte{0, 0})
	f.Add([]byte{0, 5, 1, 0}, []byte{0, 5, 0, 9, 1, 0, 2, 200})
	f.Add([]byte{}, []byte{0, 7})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a, b := sortedUnique(ab), sortedUnique(bb)
		if len(a) == 0 || len(b) == 0 {
			return // callers guard the empty cases
		}
		if got, want := probeCount(a, b), probeRef(a, b); got != want {
			t.Fatalf("probeCount(%v, %v) = %d, want %d", a, b, got, want)
		}
	})
}

// Randomized cross-check at realistic lengths (the fuzz corpus stays
// short); also exercises the skewed-length swap path.
func TestProbeCountRandom(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		la, lb := 1+r.Intn(40), 1+r.Intn(400)
		mk := func(l int) []int32 {
			seen := make(map[int32]bool, l)
			for len(seen) < l {
				seen[int32(r.Intn(600))] = true
			}
			out := make([]int32, 0, l)
			for v := range seen {
				out = append(out, v)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := mk(la), mk(lb)
		if got, want := probeCount(a, b), probeRef(a, b); got != want {
			t.Fatalf("trial %d: probeCount = %d, want %d (a=%v b=%v)", trial, got, want, a, b)
		}
	}
}
