package tmf

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestHighBudgetRecoversEdges(t *testing.T) {
	g := gen.GNM(150, 500, rng(1))
	syn, err := Default().Generate(g, 50, rng(2), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	// at eps=50, nearly all true edges pass the filter and m̃ ≈ m
	common := 0
	for _, e := range g.Edges() {
		if syn.HasEdge(e.U, e.V) {
			common++
		}
	}
	if frac := float64(common) / float64(g.M()); frac < 0.9 {
		t.Fatalf("only %.2f of true edges retained at eps=50", frac)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 25 {
		t.Fatalf("edge count off by %g at eps=50", d)
	}
}

func TestLowBudgetLosesEdges(t *testing.T) {
	g := gen.GNM(150, 500, rng(3))
	syn, err := Default().Generate(g, 0.1, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	common := 0
	for _, e := range g.Edges() {
		if syn.HasEdge(e.U, e.V) {
			common++
		}
	}
	// the paper's observation: at small ε most true edges are not
	// retained among the top-m̃ noisy cells
	if frac := float64(common) / float64(g.M()); frac > 0.7 {
		t.Fatalf("retained %.2f of true edges at eps=0.1; expected heavy loss", frac)
	}
}

func TestEdgeCountTracksNoisyM(t *testing.T) {
	g := gen.GNM(100, 300, rng(5))
	syn, err := Default().Generate(g, 5, rng(6), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 60 {
		t.Fatalf("synthetic m=%d vs true %d", syn.M(), g.M())
	}
}

func TestNaiveMatchesFilterShape(t *testing.T) {
	// The O(n²) naive variant and the filtered variant should deliver
	// comparable retention at the same budget (the filter is an exact
	// algorithmic shortcut, not an approximation of a different mechanism).
	g := gen.GNM(80, 200, rng(7))
	filt, err := Default().Generate(g, 2, rng(8), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := New(Options{NaiveFullMatrix: true}).Generate(g, 2, rng(8), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	rf := retention(g, filt)
	rn := retention(g, naive)
	if math.Abs(rf-rn) > 0.25 {
		t.Fatalf("filter retention %.2f vs naive %.2f", rf, rn)
	}
}

func retention(truth, syn *graph.Graph) float64 {
	common := 0
	for _, e := range truth.Edges() {
		if syn.HasEdge(e.U, e.V) {
			common++
		}
	}
	return float64(common) / float64(truth.M())
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(10)
	syn, err := Default().Generate(g, 1, rng(9), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != 10 {
		t.Fatalf("n = %d", syn.N())
	}
	// noisy edge count stays near zero, so few edges should appear
	if syn.M() > 30 {
		t.Fatalf("empty input produced %d edges", syn.M())
	}
}
