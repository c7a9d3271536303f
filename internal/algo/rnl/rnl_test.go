package rnl

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestHighBudgetRecoversGraph(t *testing.T) {
	g := gen.GNM(120, 400, rng(1))
	syn, err := Default().Generate(g, 20, rng(2), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	common := 0
	for _, e := range g.Edges() {
		if syn.HasEdge(e.U, e.V) {
			common++
		}
	}
	if frac := float64(common) / float64(g.M()); frac < 0.95 {
		t.Fatalf("retained %.2f at eps=20", frac)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 0.2*float64(g.M()) {
		t.Fatalf("m = %d vs %d", syn.M(), g.M())
	}
}

func TestDensificationAtLowBudget(t *testing.T) {
	// the failure mode PGB's G1/G2 principles describe: RR on a sparse
	// graph densifies massively at small ε
	g := gen.GNM(150, 300, rng(3))
	syn, err := Default().Generate(g, 0.5, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if syn.M() < 3*g.M() {
		t.Fatalf("m = %d; expected strong densification over %d", syn.M(), g.M())
	}
	// and the cap keeps it bounded
	if syn.M() > (MaxOutputFactor+2)*g.M() {
		t.Fatalf("m = %d exceeds output cap", syn.M())
	}
}

func TestTinyGraph(t *testing.T) {
	syn, err := Default().Generate(graph.New(1), 1, rng(5), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != 1 {
		t.Fatal("node universe changed")
	}
}
