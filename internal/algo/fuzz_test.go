package algo_test

import (
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/graph"
)

// FuzzGenerate: every one of the nine registered mechanisms takes an
// arbitrary small graph at any ε of {0.1, 0.5, 2, 10} without panicking
// or failing, and returns a graph that passes Validate, keeps the input's
// node count, and is the same at one worker and at four. Each byte pair
// of data is one edge over rawN%64 nodes (endpoints taken mod n, so
// self-loops and duplicates occur); rawEps picks ε, and seed seeds the
// run.
func FuzzGenerate(f *testing.F) {
	star := []byte{}
	for i := byte(1); i < 40; i++ {
		star = append(star, 0, i)
	}
	complete := []byte{}
	for u := byte(0); u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			complete = append(complete, u, v)
		}
	}
	f.Add([]byte{}, uint8(0), uint8(0), int64(1))
	f.Add([]byte{}, uint8(1), uint8(1), int64(2))
	f.Add([]byte{}, uint8(30), uint8(2), int64(3))
	f.Add([]byte{0, 1}, uint8(2), uint8(3), int64(4))
	f.Add([]byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 3, 0, 9}, uint8(5), uint8(0), int64(5))
	f.Add(star, uint8(40), uint8(1), int64(6))
	f.Add(complete, uint8(12), uint8(3), int64(7))

	names := append(core.AlgorithmNames(), "DER", "LDPGen", "RNL")
	gens := make([]algo.Generator, len(names))
	for i, name := range names {
		a, err := core.NewAlgorithm(name)
		if err != nil {
			f.Fatal(err)
		}
		gens[i] = a
	}
	epsilons := []float64{0.1, 0.5, 2, 10}
	f.Fuzz(func(t *testing.T, data []byte, rawN, rawEps uint8, seed int64) {
		n := int(rawN % 64)
		edges := make([]graph.Edge, 0, len(data)/2)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n)})
		}
		g := graph.FromEdges(n, edges)
		eps := epsilons[int(rawEps)%len(epsilons)]
		for i, a := range gens {
			var fps [2]uint64
			for j, workers := range []int{1, 4} {
				syn, err := a.Generate(g, eps, rand.New(rand.NewSource(seed)), algo.Params{Workers: workers})
				if err != nil {
					t.Fatalf("%s on %v at eps=%g, %d workers: %v", names[i], g, eps, workers, err)
				}
				if err := syn.Validate(); err != nil {
					t.Fatalf("%s on %v at eps=%g, %d workers: invalid output: %v", names[i], g, eps, workers, err)
				}
				if syn.N() != n {
					t.Fatalf("%s on %v at eps=%g, %d workers: output has %d nodes", names[i], g, eps, workers, syn.N())
				}
				fps[j] = syn.Fingerprint()
			}
			if fps[0] != fps[1] {
				t.Fatalf("%s on %v at eps=%g: fingerprint %016x at 1 worker, %016x at 4", names[i], g, eps, fps[0], fps[1])
			}
		}
	})
}
