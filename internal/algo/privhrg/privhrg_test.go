package privhrg

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/metrics"

	"pgb/internal/community"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDendrogramInvariants(t *testing.T) {
	g := gen.GNM(50, 120, rng(1))
	d := newDendrogram(g, rng(2), algo.Params{Workers: 1})
	// every internal node's leaf count equals |left| + |right|
	for u := int32(g.N()); u < int32(2*g.N()-1); u++ {
		if d.nLeaves[u] != d.nLeaves[d.left[u]]+d.nLeaves[d.right[u]] {
			t.Fatalf("leaf count mismatch at %d", u)
		}
	}
	if d.nLeaves[d.root] != int32(g.N()) {
		t.Fatalf("root covers %d leaves, want %d", d.nLeaves[d.root], g.N())
	}
	// crossing counts sum to m (each edge has exactly one LCA)
	total := 0.0
	for u := int32(g.N()); u < int32(2*g.N()-1); u++ {
		total += d.e[u]
	}
	if int(total) != g.M() {
		t.Fatalf("crossing counts sum to %g, want %d", total, g.M())
	}
}

func TestMCMCPreservesEdgeAccounting(t *testing.T) {
	// after generation with a huge budget, total crossing counts must
	// still track the number of edges (incremental updates stay
	// consistent). We verify via the output edge count instead of
	// internals: huge eps → noisy counts ≈ true counts.
	g := gen.PlantedPartition(100, 4, 0.4, 0.02, rng(3))
	syn, err := Default().Generate(g, 100, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 0.3*float64(g.M()) {
		t.Fatalf("m = %d vs true %d at eps=100", syn.M(), g.M())
	}
}

func TestCommunitySignalSurvives(t *testing.T) {
	// HRG should preserve strong two-block structure much better than
	// chance at a generous budget
	g := gen.PlantedPartition(80, 2, 0.6, 0.01, rng(5))
	truth := community.Louvain(g, rng(6))
	syn, err := New(Options{MCMCSteps: 20000}).Generate(g, 50, rng(7), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	det := community.Louvain(syn, rng(8))
	if nmi := metrics.NMI(truth.Labels, det.Labels); nmi < 0.2 {
		t.Fatalf("NMI = %g; community structure lost", nmi)
	}
}

func TestTermLL(t *testing.T) {
	if v := termLL(0, 10); v != 0 {
		t.Fatalf("termLL(0, 10) = %g, want 0 (p=0)", v)
	}
	if v := termLL(10, 10); v != 0 {
		t.Fatalf("termLL(10, 10) = %g, want 0 (p=1)", v)
	}
	// p = 0.5 on 4 pairs: 2·ln.5 + 2·ln.5 = -4 ln 2
	if v := termLL(2, 4); math.Abs(v+4*math.Ln2) > 1e-12 {
		t.Fatalf("termLL(2,4) = %g, want %g", v, -4*math.Ln2)
	}
}

func TestSampleBinomialBounds(t *testing.T) {
	r := rng(9)
	for i := 0; i < 200; i++ {
		n := float64(1 + r.Intn(1000))
		p := r.Float64()
		v := sampleBinomial(r, n, p)
		if v < 0 || float64(v) > n {
			t.Fatalf("binomial(%g, %g) = %d out of range", n, p, v)
		}
	}
	if sampleBinomial(r, 100, 0) != 0 || sampleBinomial(r, 100, 1) != 100 {
		t.Fatal("degenerate p broken")
	}
}

func TestTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		g := graph.New(n)
		syn, err := Default().Generate(g, 1, rng(10), algo.Params{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if syn.N() != n {
			t.Fatalf("n=%d: output %d", n, syn.N())
		}
	}
}

// bruteCrossing counts the graph edges between the leaf sets of
// subtrees a and s pair by pair.
func bruteCrossing(d *dendrogram, a, s int32) float64 {
	la := d.collectLeaves(a, nil)
	ls := d.collectLeaves(s, nil)
	cnt := 0
	for _, u := range la {
		for _, v := range ls {
			if d.g.HasEdge(u, v) {
				cnt++
			}
		}
	}
	return float64(cnt)
}

// TestEdgesBetweenMatchesBruteForce drives random swaps through the
// chain's own bookkeeping, then checks edgesBetween and every stored
// crossing count against a pair-by-pair count. At n = 1200 the subtrees
// near the root exceed shardGrain leaves on both sides, so the sharded
// path runs as well as the inline one.
func TestEdgesBetweenMatchesBruteForce(t *testing.T) {
	g := gen.PlantedPartition(1200, 6, 0.05, 0.003, rng(11))
	for _, workers := range []int{1, 4} {
		d := newDendrogram(g, rng(12), algo.Params{Workers: workers})
		r0 := rng(13)
		n := g.N()
		for step := 0; step < 3000; step++ {
			r := int32(n) + int32(r0.Intn(n-1))
			if r == d.root {
				continue
			}
			par := d.parent[r]
			sib := d.left[par]
			if sib == r {
				sib = d.right[par]
			}
			keep, move := d.left[r], d.right[r]
			if r0.Intn(2) == 1 {
				keep, move = move, keep
			}
			x := d.edgesBetween(keep, sib)
			if step%100 == 0 {
				if want := bruteCrossing(d, keep, sib); x != want {
					t.Fatalf("workers=%d step %d: edgesBetween = %g, brute force %g", workers, step, x, want)
				}
			}
			d.swap(r, keep, move, sib, x, d.e[r]+d.e[par]-x)
		}
		big := false
		for r := int32(n); r < int32(2*n-1); r++ {
			l, rr := d.left[r], d.right[r]
			want := bruteCrossing(d, l, rr)
			if got := d.edgesBetween(l, rr); got != want || d.e[r] != want {
				t.Fatalf("workers=%d node %d: edgesBetween = %g, stored %g, brute force %g", workers, r, got, d.e[r], want)
			}
			big = big || min(d.nLeaves[l], d.nLeaves[rr]) > shardGrain
		}
		if !big {
			t.Fatalf("workers=%d: no node's smaller side exceeds shardGrain", workers)
		}
	}
}

// TestGenerateAllocsIndependentOfSteps pins the chain to a fixed number
// of allocations: ten times the steps must not allocate more.
func TestGenerateAllocsIndependentOfSteps(t *testing.T) {
	g := gen.PlantedPartition(300, 4, 0.2, 0.01, rng(14))
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := New(Options{MCMCSteps: steps}).Generate(g, 1, rng(15), algo.Params{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(2000), allocs(20000); a != b {
		t.Fatalf("allocs/op: %g at 2000 steps, %g at 20000", a, b)
	}
}
