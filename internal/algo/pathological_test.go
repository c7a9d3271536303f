package algo_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgb/internal/algo"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

// pathological inputs: structures that stress each representation —
// a star (degree skew, zero clustering), a complete graph (maximum
// density), a disconnected forest (no giant component), and an empty
// graph with many nodes.
func pathologicalGraphs() map[string]*graph.Graph {
	star := graph.NewBuilder(60)
	for i := int32(1); i < 60; i++ {
		_ = star.AddEdge(0, i)
	}
	complete := graph.NewBuilder(30)
	for u := int32(0); u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			_ = complete.AddEdge(u, v)
		}
	}
	forest := graph.NewBuilder(80)
	for i := int32(0); i < 80; i += 4 {
		_ = forest.AddEdge(i, i+1)
		_ = forest.AddEdge(i+1, i+2)
		_ = forest.AddEdge(i+2, i+3)
	}
	return map[string]*graph.Graph{
		"star":     star.Build(),
		"complete": complete.Build(),
		"forest":   forest.Build(),
		"empty":    graph.New(50),
	}
}

func TestPathologicalInputs(t *testing.T) {
	//pgb:deterministic every generator runs on every graph with a freshly seeded rng
	for gname, g := range pathologicalGraphs() {
		for _, a := range generators() {
			for _, eps := range []float64{0.1, 5} {
				r := rand.New(rand.NewSource(9))
				syn, err := a.Generate(g, eps, r, algo.Params{})
				if err != nil {
					t.Errorf("%s on %s eps=%g: %v", a.Name(), gname, eps, err)
					continue
				}
				if syn.N() != g.N() {
					t.Errorf("%s on %s: node universe %d, want %d", a.Name(), gname, syn.N(), g.N())
				}
				if err := syn.Validate(); err != nil {
					t.Errorf("%s on %s: invalid output: %v", a.Name(), gname, err)
				}
			}
		}
	}
}

// property: every generator produces a valid graph on arbitrary random
// inputs at arbitrary budgets.
func TestQuickGeneratorsAlwaysValid(t *testing.T) {
	gens := generators()
	f := func(seed int64, rawEps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(60)
		g := gen.GNP(n, 0.08, r)
		eps := 0.1 + float64(rawEps%100)/10
		a := gens[int(uint64(seed)%uint64(len(gens)))]
		syn, err := a.Generate(g, eps, r, algo.Params{})
		if err != nil {
			return false
		}
		return syn.N() == g.N() && syn.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
