package algo_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/dp"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

// pathological inputs: structures that stress each representation —
// a star (degree skew, zero clustering), a complete graph (maximum
// density), a disconnected forest (no giant component), and an empty
// graph with many nodes.
func pathologicalGraphs() map[string]*graph.Graph {
	var star []graph.Edge
	for i := int32(1); i < 60; i++ {
		star = append(star, graph.Edge{U: 0, V: i})
	}
	var complete []graph.Edge
	for u := int32(0); u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			complete = append(complete, graph.Edge{U: u, V: v})
		}
	}
	var forest []graph.Edge
	for i := int32(0); i < 80; i += 4 {
		forest = append(forest, graph.Edge{U: i, V: i + 1}, graph.Edge{U: i + 1, V: i + 2}, graph.Edge{U: i + 2, V: i + 3})
	}
	return map[string]*graph.Graph{
		"star":     graph.FromEdges(60, star),
		"complete": graph.FromEdges(30, complete),
		"forest":   graph.FromEdges(80, forest),
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

// Budgets at the edges of what dp.CheckEpsilon accepts — subnormal ε,
// whose stage shares and smooth-sensitivity β underflow to 0, and the
// largest finite ε — must end in an error or a valid graph, never a
// panic: a panic in a served run kills the process, and a restart that
// re-adopts the run panics again.
func TestExtremeEpsilonNeverPanics(t *testing.T) {
	g := testGraph(5)
	for _, name := range append(core.AlgorithmNames(), "DER", "LDPGen", "RNL") {
		a, err := core.NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{5e-324, 1.5e-323, 3e-323, 5e-323, 1e-300, math.MaxFloat64} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s at eps=%g panicked: %v", name, eps, p)
					}
				}()
				syn, err := a.Generate(g, eps, rand.New(rand.NewSource(1)), algo.Params{})
				if err != nil {
					return
				}
				if syn.N() != g.N() {
					t.Errorf("%s at eps=%g: output has %d nodes, want %d", name, eps, syn.N(), g.N())
				}
				if err := syn.Validate(); err != nil {
					t.Errorf("%s at eps=%g: invalid output: %v", name, eps, err)
				}
			}()
		}
	}
}

// The smallest budgets dp.CheckEpsilon accepts are ones every mechanism
// can spend: at the smallest normal float64 and above, all nine return
// a valid graph on a 30-node graph. So the floor refuses no budget a
// mechanism could have spent.
func TestSmallestAcceptedEpsilonGenerates(t *testing.T) {
	g := gen.PlantedPartition(30, 3, 0.4, 0.05, rand.New(rand.NewSource(7)))
	for _, name := range append(core.AlgorithmNames(), "DER", "LDPGen", "RNL") {
		a, err := core.NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0x1p-1022, 1e-300, 1e-100, 1e-10} {
			if err := dp.CheckEpsilon(eps); err != nil {
				t.Fatalf("CheckEpsilon(%g) = %v", eps, err)
			}
			syn, err := a.Generate(g, eps, rand.New(rand.NewSource(1)), algo.Params{})
			if err != nil {
				t.Errorf("%s at eps=%g: %v", name, eps, err)
				continue
			}
			if syn.N() != g.N() {
				t.Errorf("%s at eps=%g: output has %d nodes, want %d", name, eps, syn.N(), g.N())
			}
			if err := syn.Validate(); err != nil {
				t.Errorf("%s at eps=%g: invalid output: %v", name, eps, err)
			}
		}
	}
}
