// Package der implements DER — Density Explore & Reconstruct (Chen, Fung,
// Yu & Desai, VLDB Journal 2014): correlated network data publication via
// differential privacy. PGB uses DER only in its appendix (Fig. 7) as a
// baseline against TmF and PrivGraph.
//
// Representation: a quadtree over the adjacency matrix — regions are
// recursively split while their noisy edge density remains informative.
// Perturbation: Laplace noise on each region's edge count (sensitivity 1),
// with the budget divided geometrically across quadtree levels.
// Construction: within each leaf region, the noisy count of edges is
// placed uniformly at random.
package der

import (
	"math"
	"math/rand"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/graph"
)

// minRegion stops quadtree splitting once both sides of a region are at
// most this long.
const minRegion = 16

// DER is the quadtree exploration baseline.
type DER struct{}

// Default returns DER with the paper's parameterisation.
func Default() *DER { return &DER{} }

// region is a rectangle [r0,r1)×[c0,c1) of the adjacency matrix restricted
// to the upper triangle (c > r at placement time).
type region struct {
	r0, r1, c0, c1 int
	depth          int
}

// Generate implements algo.Generator. DER stays serial (it ignores its
// Params): its quadtree descent draws noise at every split, so the rng
// stream threads the whole recursion and there is no deterministic hot
// pass worth sharding (DESIGN.md §10).
func (d *DER) Generate(g *graph.Graph, eps float64, rng *rand.Rand, _ algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	if err := acct.Spend(eps); err != nil {
		return nil, err
	}
	n := g.N()
	if n < 2 {
		return graph.New(n), nil
	}
	maxDepth := int(math.Ceil(math.Log2(float64(n))))
	// Geometric budget split across levels: level i gets eps·(1/2)^(i+1),
	// with the tail assigned to the deepest level so the total is exactly ε.
	levelEps := make([]float64, maxDepth+1)
	remaining := eps
	for i := 0; i < maxDepth; i++ {
		levelEps[i] = remaining / 2
		remaining /= 2
	}
	levelEps[maxDepth] = remaining

	b := graph.NewEdgeSet(n, g.M())
	var explore func(reg region)
	explore = func(reg region) {
		rows := reg.r1 - reg.r0
		cols := reg.c1 - reg.c0
		if rows <= 0 || cols <= 0 {
			return
		}
		truth := countEdgesIn(g, reg)
		epsHere := levelEps[reg.depth]
		noisy := truth + dp.Laplace(rng, 1/epsHere)
		cells := upperCells(reg)
		if cells <= 0 {
			return
		}
		// Stop if the region is small, at max depth, or its noisy density
		// is homogeneous enough that splitting is uninformative.
		density := noisy / cells
		stop := reg.depth >= maxDepth ||
			(rows <= minRegion && cols <= minRegion) ||
			density <= 0 || density >= 0.9
		if stop {
			placeUniform(b, reg, noisy, rng)
			return
		}
		rm := (reg.r0 + reg.r1) / 2
		cm := (reg.c0 + reg.c1) / 2
		children := []region{
			{reg.r0, rm, reg.c0, cm, reg.depth + 1},
			{reg.r0, rm, cm, reg.c1, reg.depth + 1},
			{rm, reg.r1, reg.c0, cm, reg.depth + 1},
			{rm, reg.r1, cm, reg.c1, reg.depth + 1},
		}
		for _, ch := range children {
			explore(ch)
		}
	}
	explore(region{0, n, 0, n, 0})
	return b.Build(), nil
}

// countEdgesIn counts edges (u, v) with u in rows, v in cols, u < v.
func countEdgesIn(g *graph.Graph, reg region) float64 {
	cnt := 0.0
	for u := reg.r0; u < reg.r1; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if int(v) >= reg.c0 && int(v) < reg.c1 && u < int(v) {
				cnt++
			}
		}
	}
	return cnt
}

// upperCells counts matrix cells in the region restricted to u < v.
func upperCells(reg region) float64 {
	cells := 0.0
	for u := reg.r0; u < reg.r1; u++ {
		lo := reg.c0
		if lo <= u {
			lo = u + 1
		}
		if reg.c1 > lo {
			cells += float64(reg.c1 - lo)
		}
	}
	return cells
}

// placeUniform samples round(noisy) uniform cells (u < v) in the region.
func placeUniform(b *graph.EdgeSet, reg region, noisy float64, rng *rand.Rand) {
	count := int(math.Round(noisy))
	if count <= 0 {
		return
	}
	cells := int(upperCells(reg))
	if count > cells {
		count = cells
	}
	placed, tries := 0, 0
	for placed < count && tries < 30*count+100 {
		tries++
		u := int32(reg.r0 + rng.Intn(reg.r1-reg.r0))
		v := int32(reg.c0 + rng.Intn(reg.c1-reg.c0))
		if u >= v || b.Has(u, v) {
			continue
		}
		b.Add(u, v)
		placed++
	}
}
