package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgb/internal/graph"
)

func TestExactDiameterKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path5", path5(), 4},
		{"K4", k4(), 1},
		{"star", star(6), 2},
		{"empty", graph.New(5), 0},
	}
	for _, c := range cases {
		if got := ExactDiameter(c.g, rng()); got != c.want {
			t.Errorf("ExactDiameter(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestExactDiameterRing(t *testing.T) {
	edges := make([]graph.Edge, 60)
	for i := 0; i < 60; i++ {
		edges[i] = graph.Canon(int32(i), int32((i+1)%60))
	}
	g := graph.FromEdges(60, edges)
	if got := ExactDiameter(g, rng()); got != 30 {
		t.Fatalf("ring diameter = %d, want 30", got)
	}
}

func TestExactDiameterUsesLargestComponent(t *testing.T) {
	// component A: path of 4 (diam 3); component B: single edge
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 5}})
	if got := ExactDiameter(g, rng()); got != 3 {
		t.Fatalf("diameter = %d, want 3 (largest component)", got)
	}
}

// property: iFUB matches all-pairs BFS on random graphs.
func TestQuickExactDiameterMatchesAllPairs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		if g.M() == 0 {
			return ExactDiameter(g, r) == 0
		}
		// restrict all-pairs reference to the largest component
		comp := g.LargestComponent()
		sub := g.Subgraph(comp)
		ref := int(ExactDistancesParallel(sub, 1, nil).Diameter)
		return ExactDiameter(g, r) == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
