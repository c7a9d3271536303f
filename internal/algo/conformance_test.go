package algo_test

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/par"
)

// mechanism is one registry row under test: its generator, and its name
// for failure messages.
type mechanism struct {
	algo.Generator
	name string
}

func (m mechanism) Name() string { return m.name }

// generators is the shared fixture: the six benchmarked mechanisms and
// DER, straight from the registry.
func generators() []mechanism {
	var gens []mechanism
	for _, name := range append(core.AlgorithmNames(), "DER") {
		g, err := core.NewAlgorithm(name)
		if err != nil {
			panic(err)
		}
		gens = append(gens, mechanism{g, name})
	}
	return gens
}

func testGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	return gen.PlantedPartition(150, 4, 0.35, 0.02, r)
}

// Every generator must return a valid simple graph over the same node
// universe, at both a tight and a loose budget.
func TestConformanceValidOutput(t *testing.T) {
	g := testGraph(5)
	for _, a := range generators() {
		for _, eps := range []float64{0.5, 10} {
			r := rand.New(rand.NewSource(23))
			syn, err := a.Generate(g, eps, r, algo.Params{})
			if err != nil {
				t.Errorf("%s eps=%g: %v", a.Name(), eps, err)
				continue
			}
			if syn.N() != g.N() {
				t.Errorf("%s eps=%g: n=%d, want %d", a.Name(), eps, syn.N(), g.N())
			}
			if err := syn.Validate(); err != nil {
				t.Errorf("%s eps=%g: invalid output: %v", a.Name(), eps, err)
			}
		}
	}
}

// Same seed, same output — the reproducibility contract.
func TestConformanceDeterminism(t *testing.T) {
	g := testGraph(6)
	for _, a := range generators() {
		s1, err := a.Generate(g, 1, rand.New(rand.NewSource(77)), algo.Params{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		s2, err := a.Generate(g, 1, rand.New(rand.NewSource(77)), algo.Params{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if s1.M() != s2.M() {
			t.Errorf("%s: non-deterministic edge count %d vs %d", a.Name(), s1.M(), s2.M())
			continue
		}
		e1, e2 := s1.Edges(), s2.Edges()
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Errorf("%s: non-deterministic edges", a.Name())
				break
			}
		}
	}
}

// Parallel execution is a schedule, not a value change: for every
// generator, Generate at workers 2 and 8 (shared budget included) must
// produce a valid graph bit-identical to the one-worker result
// — the conformance-level statement of the DESIGN.md §10 contract. The
// graph is deliberately larger than the generators' shardGrain (256),
// so the sharded passes really decompose into multiple blocks here —
// a grain-sized graph would silently take the single-block serial path
// at every worker count.
func TestConformanceParallelMatchesSerial(t *testing.T) {
	g := gen.PlantedPartition(700, 4, 0.08, 0.01, rand.New(rand.NewSource(9)))
	for _, a := range generators() {
		serial, err := a.Generate(g, 1, rand.New(rand.NewSource(51)), algo.Params{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for _, workers := range []int{2, 8} {
			for _, budget := range []*par.Budget{nil, par.NewBudget(workers - 1)} {
				syn, err := a.Generate(g, 1, rand.New(rand.NewSource(51)),
					algo.Params{Workers: workers, Budget: budget})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", a.Name(), workers, err)
				}
				if err := syn.Validate(); err != nil {
					t.Errorf("%s workers=%d: invalid output: %v", a.Name(), workers, err)
				}
				if syn.Fingerprint() != serial.Fingerprint() {
					t.Errorf("%s workers=%d budget=%v: parallel output diverged from serial",
						a.Name(), workers, budget != nil)
				}
			}
		}
	}
}

// At a huge budget, every algorithm should land near the true edge count
// (the loosest common utility expectation; DER's quadtree is coarser, so
// it gets a wider band).
func TestConformanceHighBudgetEdgeCount(t *testing.T) {
	g := testGraph(7)
	m := float64(g.M())
	for _, a := range generators() {
		r := rand.New(rand.NewSource(31))
		syn, err := a.Generate(g, 100, r, algo.Params{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		tol := 0.35
		if a.Name() == "DER" || a.Name() == "DP-dK" {
			tol = 0.8
		}
		if d := float64(syn.M()); d < m*(1-tol) || d > m*(1+tol) {
			t.Errorf("%s at eps=100: m=%d, true %d (tolerance %g)", a.Name(), syn.M(), g.M(), tol)
		}
	}
}

// Tiny graphs (n = 0, 1, 2) must not panic.
func TestConformanceTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		var g *graph.Graph
		if n == 2 {
			g = graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
		} else {
			g = graph.New(n)
		}
		for _, a := range generators() {
			r := rand.New(rand.NewSource(3))
			syn, err := a.Generate(g, 1, r, algo.Params{})
			if err != nil {
				t.Errorf("%s n=%d: %v", a.Name(), n, err)
				continue
			}
			if syn.N() != n {
				t.Errorf("%s n=%d: output n=%d", a.Name(), n, syn.N())
			}
		}
	}
}

// Every registered mechanism must refuse a budget that is not a finite
// ε > 0 with an error, never answer with a graph: under NaN the plain
// comparisons eps <= 0 and spent+eps > total are both false, so an
// accountant that only made those tests let NaN and +Inf through.
func TestConformanceRejectsInvalidEpsilon(t *testing.T) {
	g := testGraph(3)
	names := append(core.AlgorithmNames(), "DER", "LDPGen", "RNL")
	for _, name := range names {
		a, err := core.NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{math.NaN(), math.Inf(1), 0, -1} {
			syn, err := a.Generate(g, eps, rand.New(rand.NewSource(1)), algo.Params{})
			if err == nil {
				t.Errorf("%s accepted eps=%g (output m=%d)", name, eps, syn.M())
			}
		}
	}
}
