package gen

import (
	"math"
	"math/rand"
	"sort"

	"pgb/internal/graph"
)

// bterRho scales BTER's within-block connectivity (ρ = 1 would reproduce
// the canonical choice ρ_b = target local clustering; PGB uses 0.9 with a
// degree-decaying factor).
const bterRho = 0.9

// BTER implements the Block Two-level Erdős–Rényi model (Seshadhri, Kolda
// & Pinar 2012): nodes are grouped into affinity blocks of similar degree;
// phase 1 wires dense ER graphs inside blocks (producing clustering),
// phase 2 adds a Chung-Lu layer over the residual degree. This is the
// construction stage of DGG and the model LDPGen builds on.
//
// degrees is the (sanitised) target degree sequence; bterRho scales the
// within-block connectivity.
func BTER(degrees []int, rng *rand.Rand) *graph.Graph {
	n := len(degrees)
	if n == 0 {
		return graph.FromEdges(0, nil)
	}
	// Order nodes by degree ascending, skipping degree-0 and degree-1
	// nodes for block formation (they join only the Chung-Lu phase).
	order := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if degrees[u] >= 2 {
			order = append(order, u)
		}
	}
	sort.Slice(order, func(i, j int) bool { return degrees[order[i]] < degrees[order[j]] })

	residual := make([]float64, n)
	for u := 0; u < n; u++ {
		residual[u] = float64(degrees[u])
	}

	// Phase 1: affinity blocks. A block groups d+1 consecutive nodes where
	// d is the smallest degree in the block; wire it as ER with connection
	// probability p = bterRho * decay, where decay weakens for high-degree
	// blocks (the canonical BTER parameterisation).
	//
	// Edges accumulate in a flat list: blocks are disjoint ranges of
	// `order` and each unordered pair inside a block is drawn at most
	// once, so phase 1 cannot propose a duplicate — no membership probe
	// is needed, and FromEdges dedups the (possible) phase-1/phase-2
	// collisions.
	halfMass := 0
	for _, d := range degrees {
		halfMass += d
	}
	edges := make([]graph.Edge, 0, halfMass/2+1)
	i := 0
	for i < len(order) {
		d := degrees[order[i]]
		size := d + 1
		if i+size > len(order) {
			size = len(order) - i
		}
		if size < 2 {
			break
		}
		block := order[i : i+size]
		dmin := float64(degrees[block[0]])
		decay := 1 / (1 + math.Log1p(dmin)/4)
		p := bterRho * decay // decay < 1, so p < bterRho < 1
		for a := 0; a < size; a++ {
			for c := a + 1; c < size; c++ {
				if rng.Float64() < p {
					u, v := int32(block[a]), int32(block[c])
					edges = append(edges, graph.Canon(u, v))
					residual[u]--
					residual[v]--
				}
			}
		}
		i += size
	}

	// Phase 2: Chung-Lu on the residual (excess) degrees.
	weights := make([]float64, n)
	for u := 0; u < n; u++ {
		if residual[u] > 0 {
			weights[u] = residual[u]
		}
	}
	edges = chungLuEdges(weights, rng, edges)
	return graph.FromEdges(n, edges)
}
