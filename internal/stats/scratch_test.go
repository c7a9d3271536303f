package stats

import (
	"math/rand"
	"sync"
	"testing"

	"pgb/internal/graph"
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
	wantDiam := ExactDiameter(g)
	wantANF := ANFDistancesParallel(g, rand.New(rand.NewSource(17)), 1, nil)

	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				if tri, _, acc := TriangleProfileParallel(g, 2, nil); tri != wantTri || acc != wantACC {
					t.Errorf("goroutine %d: (triangles, ACC) (%g, %g) != (%g, %g)", id, tri, acc, wantTri, wantACC)
					return
				}
				if got := ExactDiameter(g); got != wantDiam {
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

// A pooled stamp plane comes back holding the stamps of the triangle
// pass that used it last. Before each call on a small graph, leave
// several pooled arenas — enough for the caller and both workers —
// holding the serial triangle pass of a larger graph; the answers must
// equal the mark reference. The larger graph is the ring with edges
// {i, i+2 mod n}: equal degrees make rank = id, so its pass leaves
// stamp t−1 on every rank t ≥ 2 — the tag of the path's root t−2, so a
// pass that skipped clearing its plane would count every wedge
// (t−2, t−1, t) of the path as a triangle.
func TestTrianglesIgnoreStaleScratch(t *testing.T) {
	const n = 1500
	var ring []graph.Edge
	for i := 0; i < n; i++ {
		ring = append(ring, graph.Edge{U: int32(i), V: int32((i + 2) % n)})
	}
	big := graph.FromEdges(n, ring)
	dirty := func() {
		held := make([]*Scratch, 4)
		for i := range held {
			held[i] = getScratch()
			perNodeTriangles(big, held[i], 1, nil)
		}
		for _, s := range held {
			s.Release()
		}
	}
	for _, small := range []*graph.Graph{pathGraph(150), randomGraph(22, 150)} {
		want := refTriangles(small)
		for _, workers := range []int{1, 2} {
			dirty()
			if tri, _, acc := TriangleProfileParallel(small, workers, nil); tri != want.tri || acc != want.acc {
				t.Fatalf("workers %d: TriangleProfileParallel after dirty pool = (%g, %g), reference (%g, %g)",
					workers, tri, acc, want.tri, want.acc)
			}
		}
	}
}
