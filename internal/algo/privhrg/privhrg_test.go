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
