package stats

import (
	"math/rand"
	"sync"
	"testing"
)

// Kernels draw Scratch arenas from a process-wide pool; this test runs
// the pooled kernels concurrently from many goroutines and checks every
// result against precomputed serial answers. Run under -race (CI does),
// it verifies the §11 ownership rule — one goroutine per Scratch
// between get and Release, outputs copied out fresh — with real
// workloads rather than a synthetic pool exercise.
func TestScratchPoolConcurrentKernels(t *testing.T) {
	g := randomGraph(6, 300)
	wantTri, _, wantACC := TriangleProfileParallel(g, 1, nil)
	wantDiam := ExactDiameter(g, rand.New(rand.NewSource(3)))
	wantANF := ANFDistancesParallel(g, rand.New(rand.NewSource(17)), 1, nil)

	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				if got := TrianglesParallel(g, 2, nil); got != wantTri {
					t.Errorf("goroutine %d: triangles %g != %g", id, got, wantTri)
					return
				}
				if _, _, got := TriangleProfileParallel(g, 2, nil); got != wantACC {
					t.Errorf("goroutine %d: ACC %g != %g", id, got, wantACC)
					return
				}
				if got := ExactDiameter(g, rand.New(rand.NewSource(3))); got != wantDiam {
					t.Errorf("goroutine %d: diameter %d != %d", id, got, wantDiam)
					return
				}
				got := ANFDistancesParallel(g, rand.New(rand.NewSource(17)), 2, nil)
				if got.Diameter != wantANF.Diameter || got.AvgPath != wantANF.AvgPath {
					t.Errorf("goroutine %d: ANF (%g, %g) != (%g, %g)",
						id, got.Diameter, got.AvgPath, wantANF.Diameter, wantANF.AvgPath)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// Pooled arenas come back holding whatever the last kernel left in
// them. Dirty the pool with the ANF register planes and the triangle
// tables of a larger graph, then run both BFS sweeps on a smaller graph:
// the answers must equal the reference on fresh slices, which is what a
// fresh process computes. A sweep that read pool contents instead of
// clearing its planes would diverge here.
func TestDistancesIgnoreStaleScratch(t *testing.T) {
	big := randomGraph(21, 1500)
	small := sparseGraph(22, 150, 2.5)
	wantExact := refExact(small)
	perm := rand.New(rand.NewSource(5)).Perm(small.N())
	wantSampled := refDistances(small, perm[:70])
	for round := 0; round < 3; round++ {
		ANFDistancesParallel(big, rand.New(rand.NewSource(17)), 2, nil)
		TriangleProfileParallel(big, 2, nil)
		assertDistanceStatsEqual(t, "exact after dirty pool", 2, ExactDistancesParallel(small, 2, nil), wantExact)
		got := SampledDistancesParallel(small, 70, rand.New(rand.NewSource(5)), 2, nil)
		assertDistanceStatsEqual(t, "sampled after dirty pool", 2, got, wantSampled)
	}
}
