package der

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestUpperCells(t *testing.T) {
	// full 4×4 upper triangle: 6 cells
	if c := upperCells(region{0, 4, 0, 4, 0}); c != 6 {
		t.Fatalf("upperCells full = %g, want 6", c)
	}
	// off-diagonal block rows [0,2) cols [2,4): all 4 cells have u < v
	if c := upperCells(region{0, 2, 2, 4, 0}); c != 4 {
		t.Fatalf("upperCells block = %g, want 4", c)
	}
	// block entirely below the diagonal contributes nothing
	if c := upperCells(region{2, 4, 0, 2, 0}); c != 0 {
		t.Fatalf("upperCells lower = %g, want 0", c)
	}
}

func TestCountEdgesIn(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 3}, {U: 2, V: 3}})
	if c := countEdgesIn(g, region{0, 4, 0, 4, 0}); c != 3 {
		t.Fatalf("full count = %g, want 3", c)
	}
	if c := countEdgesIn(g, region{0, 2, 2, 4, 0}); c != 1 { // 0-3 only
		t.Fatalf("block count = %g, want 1", c)
	}
}

func TestEdgeCountRoughlyPreserved(t *testing.T) {
	g := gen.GNM(128, 500, rng(1))
	syn, err := Default().Generate(g, 20, rng(2), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 0.6*float64(g.M()) {
		t.Fatalf("m = %d vs true %d", syn.M(), g.M())
	}
}

func TestDenseRegionFoundByQuadtree(t *testing.T) {
	// plant a dense block among nodes 0..31 and near-nothing elsewhere;
	// the reconstruction should put most edges back inside the block
	var edges []graph.Edge
	r := rng(3)
	for i := 0; i < 300; i++ {
		u, v := int32(r.Intn(32)), int32(r.Intn(32))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	for i := 0; i < 20; i++ {
		edges = append(edges, graph.Edge{U: int32(32 + r.Intn(96)), V: int32(32 + r.Intn(96))})
	}
	g := graph.FromEdges(128, edges)
	syn, err := Default().Generate(g, 10, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	inBlock := 0
	for _, e := range syn.Edges() {
		if e.U < 32 && e.V < 32 {
			inBlock++
		}
	}
	if frac := float64(inBlock) / float64(syn.M()+1); frac < 0.5 {
		t.Fatalf("only %.2f of reconstructed edges in the dense block", frac)
	}
}
