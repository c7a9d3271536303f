// Package dgg implements DGG — the degree-based baseline of PGB, a
// centralised (Edge CDP) revision of LDPGen (Qin et al., CCS 2017).
//
// Representation: the node degree sequence. Perturbation: Laplace noise on
// each degree; under edge CDP adding/removing one edge changes two degrees
// by 1 each, so the L1 sensitivity of the full sequence is 2.
// Construction: BTER (Seshadhri, Kolda & Pinar 2012), which clusters nodes
// of similar degree into dense blocks — hence DGG's strength on high-ACC
// graphs noted in the paper.
package dgg

import (
	"math/rand"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

// Options configures DGG.
type Options struct {
	// UseChungLu replaces the BTER construction with plain Chung-Lu —
	// the ablation dropping the clustering-preserving blocks.
	UseChungLu bool
}

// DGG is the degree-sequence + BTER baseline generator.
type DGG struct {
	opt Options
}

// New returns a DGG generator with the given options.
func New(opt Options) *DGG { return &DGG{opt: opt} }

// Default returns DGG with the paper's parameterisation.
func Default() *DGG { return New(Options{}) }

// Generate implements algo.Generator. DGG stays serial (it ignores its
// Params): one Laplace draw per node plus a BTER/Chung-Lu construction
// that is rng-bound end to end leaves no deterministic hot pass worth
// sharding (DESIGN.md §10).
func (d *DGG) Generate(g *graph.Graph, eps float64, rng *rand.Rand, _ algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	if err := acct.Spend(eps); err != nil {
		return nil, err
	}
	// Perturb the degree sequence: L1 sensitivity 2 under edge CDP.
	degrees := g.Degrees()
	noisy := make([]float64, len(degrees))
	for i, deg := range degrees {
		noisy[i] = float64(deg) + dp.Laplace(rng, 2/eps)
	}
	target := gen.SanitizeDegrees(noisy)
	if d.opt.UseChungLu {
		w := make([]float64, len(target))
		for i, t := range target {
			w[i] = float64(t)
		}
		return gen.ChungLu(w, rng), nil
	}
	return gen.BTER(target, rng), nil
}
