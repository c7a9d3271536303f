package dgg

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/stats"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDegreePreservationHighBudget(t *testing.T) {
	g := gen.GNM(200, 800, rng(1))
	syn, err := Default().Generate(g, 100, rng(2), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	trueAvg := stats.AvgDegree(g)
	synAvg := stats.AvgDegree(syn)
	if math.Abs(trueAvg-synAvg) > trueAvg*0.25 {
		t.Fatalf("avg degree %g vs true %g", synAvg, trueAvg)
	}
}

func TestClusteringAboveChungLuAblation(t *testing.T) {
	// the BTER construction must retain more clustering than the
	// Chung-Lu ablation on a clustered input
	g := gen.CliqueCover(300, 70, 4, 6, 0.1, rng(3))
	bter, err := Default().Generate(g, 20, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Options{UseChungLu: true}).Generate(g, 20, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, accB := stats.TriangleProfileParallel(bter, 1, nil)
	_, _, accC := stats.TriangleProfileParallel(cl, 1, nil)
	if accB <= accC {
		t.Fatalf("BTER ACC %g not above Chung-Lu ablation %g", accB, accC)
	}
}

func TestNoiseScalesWithEpsilon(t *testing.T) {
	// with a tiny budget the degree sequence is heavily distorted
	g := gen.GNM(100, 200, rng(5))
	trueVar := stats.DegreeVariance(g)
	distortions := 0.0
	for rep := int64(0); rep < 5; rep++ {
		syn, err := Default().Generate(g, 0.05, rng(10+rep), algo.Params{})
		if err != nil {
			t.Fatal(err)
		}
		distortions += math.Abs(stats.DegreeVariance(syn) - trueVar)
	}
	if distortions/5 < trueVar*0.5 {
		t.Fatalf("expected heavy degree distortion at eps=0.05, got mean |Δvar| %g (true var %g)",
			distortions/5, trueVar)
	}
}

func TestEmptyGraph(t *testing.T) {
	syn, err := Default().Generate(graph.New(20), 1, rng(6), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != 20 {
		t.Fatalf("n = %d", syn.N())
	}
}
