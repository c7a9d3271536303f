// Package rnl implements RNL — Randomized Neighbor Lists — the naive
// Edge-LDP baseline: every user applies randomized response to each bit
// of her adjacency vector and the server publishes the union graph (an
// edge appears when either endpoint reported it). This is the mechanism
// whose densification failure on sparse graphs motivates PGB's G1/G2
// dataset principles (§IV-B): at small ε the flip probability approaches
// 1/2 and the output approaches a dense random graph.
//
// Like TmF and PrivGraph's randomisation phase, the quadratically many
// flipped-in non-edges are sampled in aggregate (they are exchangeable,
// i.e. uniform over non-edges), keeping the cost O(m + output).
package rnl

import (
	"math"
	"math/rand"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/graph"
)

// RNL is the randomized-neighbor-list baseline generator.
type RNL struct{}

// Default returns the RNL baseline.
func Default() *RNL { return &RNL{} }

// MaxOutputFactor caps the output at this multiple of the input edge
// count, keeping low-ε runs tractable; the cap subsamples the flipped-in
// population uniformly (post-processing, privacy-free). The densification
// failure remains visible: the cap is far above any useful utility level.
const MaxOutputFactor = 8

// Generate implements algo.Generator. RNL stays serial (it ignores its
// Params): randomized neighbor lists draw one response per adjacency
// bit, so the hot loop is the rng stream itself (DESIGN.md §10).
func (r *RNL) Generate(g *graph.Graph, eps float64, rng *rand.Rand, _ algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	if err := acct.Spend(eps); err != nil {
		return nil, err
	}
	n := g.N()
	b := graph.NewEdgeSet(n, g.M())
	if n < 2 {
		return b.Build(), nil
	}
	// Union rule: the edge survives unless both endpoints flip it away;
	// a non-edge appears if either endpoint flips it in.
	q := dp.FlipProbability(eps)
	pKeep := 1 - q*q
	pIn := 1 - (1-q)*(1-q)
	for _, e := range g.Edges() {
		if rng.Float64() < pKeep {
			b.Add(e.U, e.V)
		}
	}
	nonEdges := float64(n)*float64(n-1)/2 - float64(g.M())
	expected := nonEdges * pIn
	if cap8m := MaxOutputFactor * float64(g.M()+1); expected > cap8m {
		expected = cap8m
	}
	count := int(math.Round(expected))
	for i := 0; i < count; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			b.Add(u, v)
		}
	}
	return b.Build(), nil
}
