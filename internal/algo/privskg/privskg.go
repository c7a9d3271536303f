// Package privskg implements PrivSKG (Mir & Wright, EDBT/ICDT Workshops
// 2012): a differentially private estimator for the stochastic Kronecker
// graph model.
//
// Representation: a symmetric 2×2 Kronecker initiator [[A,B],[B,C]], fit
// from three graph moments — edge count, wedge (2-star) count and triangle
// count. Perturbation: Laplace noise on the moments, calibrated to smooth
// sensitivity (the paper's estimator; wedge and triangle counts have local
// sensitivity O(d_max), far below their global bounds). Construction:
// ball-dropping SKG sampling from the private initiator. As the paper
// notes, the generation being driven by a single small parameter set
// limits how much structure PrivSKG can capture.
package privskg

import (
	"math/rand"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/stats"
)

// delta is the (ε, δ) relaxation of the smooth-sensitivity noise.
const delta = 0.01

// PrivSKG is the private stochastic Kronecker generator.
type PrivSKG struct{}

// Default returns PrivSKG with δ = 0.01 as benchmarked in PGB.
func Default() *PrivSKG { return &PrivSKG{} }

// Generate implements algo.Generator. The triangle and wedge moments
// come from the one sharded pass, stats.TriangleProfileParallel on prm's
// workers, whose counts are exact at any worker count. The three
// Laplace draws and the rng-bound Kronecker sampling stay serial
// (DESIGN.md §10).
func (p *PrivSKG) Generate(g *graph.Graph, eps float64, rng *rand.Rand, prm algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	epsEach := eps / 3
	for i := 0; i < 3; i++ {
		if err := acct.Spend(epsEach); err != nil {
			return nil, err
		}
	}
	n := g.N()
	dmax := float64(g.MaxDegree())
	beta, err := dp.Beta(epsEach, delta)
	if err != nil {
		return nil, err
	}

	// Moment 1: edge count — global sensitivity 1.
	edges := dp.LaplaceMechanism(rng, float64(g.M()), 1, epsEach)

	// The triangle pass also sums the wedge count; it draws nothing, so
	// running it before moment 2 leaves the rng stream unchanged.
	tri, wedges, _ := stats.TriangleProfileParallel(g, prm.Workers, prm.Budget)

	// Moment 2: wedge count Σ C(d_u, 2). Flipping one edge changes two
	// degrees by 1, changing the count by d_u + d_v ≤ 2·d_max; at Hamming
	// distance t the bound grows to 2(d_max + t).
	sWedge := dp.SmoothSensitivity(beta, n, func(t int) float64 {
		ls := 2 * (dmax + float64(t))
		if max := float64(n) * 2; ls > max {
			ls = max
		}
		return ls
	})
	wedges = dp.SmoothLaplace(rng, wedges, sWedge, epsEach)

	// Moment 3: triangle count. Local sensitivity at distance t is
	// bounded by the max common-neighbor count + t ≤ d_max + t.
	sTri := dp.SmoothSensitivity(beta, n, func(t int) float64 {
		ls := dmax + float64(t)
		if max := float64(n); ls > max {
			ls = max
		}
		return ls
	})
	tri = dp.SmoothLaplace(rng, tri, sTri, epsEach)

	// Fit the initiator to the private moments and sample.
	init, k := gen.FitInitiatorMoments(n, edges, wedges, tri, rng)
	target := int(edges + 0.5)
	if target < 0 {
		target = 0
	}
	maxEdges := n * (n - 1) / 2
	if target > maxEdges {
		target = maxEdges
	}
	return gen.SampleKronecker(init, k, n, target, rng), nil
}
