// Package dpdk implements DP-dK (Wang & Wu, Transactions on Data Privacy
// 2013): differentially private graph generation via the dK-series.
//
// Representation: the dK-1 series (degree histogram) or the dK-2 series
// (joint degree matrix, JDM). Perturbation: Laplace noise — calibrated to
// global sensitivity for dK-1 and to smooth sensitivity (Nissim et al.
// 2007) for dK-2, where global sensitivity would be O(n) but local
// sensitivity is O(d_max); the smooth calibration gives DP-2K its smaller
// noise at the cost of an (ε, δ) guarantee. Construction: Havel-Hakimi for
// dK-1 (the construction the paper's verification appendix uses) and
// degree-class stub matching for dK-2.
package dpdk

import (
	"fmt"
	"math"
	"math/rand"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

// Model selects the dK-series order.
type Model int

const (
	// DK1 perturbs the degree histogram (global sensitivity 4: one edge
	// changes two node degrees, each moving one histogram unit between
	// two cells).
	DK1 Model = 1
	// DK2 perturbs the joint degree matrix with smooth-sensitivity noise.
	DK2 Model = 2
)

// delta is the (ε, δ) relaxation parameter of DK2's smooth-sensitivity
// calibration.
const delta = 0.01

// Options configures DP-dK.
type Options struct {
	Model Model
	// GlobalSensitivity forces DK2 to use the pessimistic global bound
	// instead of smooth sensitivity — the ablation in DESIGN.md §7.
	GlobalSensitivity bool
}

// DPdK is the dK-series generator.
type DPdK struct {
	opt Options
}

// New returns a DP-dK generator with the given options.
func New(opt Options) *DPdK {
	if opt.Model != DK1 {
		opt.Model = DK2
	}
	return &DPdK{opt: opt}
}

// Default returns DP-2K with δ = 0.01, the configuration PGB benchmarks.
func Default() *DPdK { return New(Options{Model: DK2}) }

// Generate implements algo.Generator. The representation stage — the
// degree histogram (dK-1) or the joint degree matrix (dK-2) — is one
// serial counting pass over the adjacency into a flat arena; sharding
// it measured no faster (DESIGN.md §10.2), so Params is unused. The
// Laplace draws and the stub-matching construction stay on rng in the
// serial order.
func (d *DPdK) Generate(g *graph.Graph, eps float64, rng *rand.Rand, _ algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	if d.opt.Model == DK1 {
		if err := acct.Spend(eps); err != nil {
			return nil, err
		}
		return d.generate1K(g, eps, rng), nil
	}
	return d.generate2K(g, acct, eps, rng)
}

// generate1K perturbs the degree histogram and realises a sampled
// sequence via Havel-Hakimi.
func (d *DPdK) generate1K(g *graph.Graph, eps float64, rng *rand.Rand) *graph.Graph {
	n := g.N()
	hist := make([]float64, g.MaxDegree()+1)
	for u := 0; u < n; u++ {
		hist[g.Degree(int32(u))]++
	}
	// Global L1 sensitivity of the histogram under edge CDP is 4.
	noisy := dp.LaplaceVectorInto(rng, hist, hist, 4, eps)
	// Post-process: clamp, renormalise to n nodes, draw a degree sequence.
	total := 0.0
	for i, v := range noisy {
		if v < 0 {
			noisy[i] = 0
		} else {
			total += v
		}
	}
	degSeq := make([]float64, n)
	if total > 0 {
		// deterministic proportional allocation, then random fill
		idx := 0
		for degVal, v := range noisy {
			cnt := int(math.Floor(v / total * float64(n)))
			for i := 0; i < cnt && idx < n; i++ {
				degSeq[idx] = float64(degVal)
				idx++
			}
		}
		for idx < n {
			degSeq[idx] = float64(rng.Intn(len(noisy)))
			idx++
		}
	}
	target := gen.SanitizeDegrees(degSeq)
	return gen.HavelHakimi(target)
}

// generate2K perturbs the joint degree matrix with smooth-sensitivity
// Laplace noise and rebuilds via degree-class stub matching. A small
// slice of the budget buys a low-sensitivity edge total that anchors the
// noisy matrix: per-entry noise has huge variance in aggregate (hundreds
// of entries × O(d_max) scale), so without the anchor the synthetic edge
// count would drift by multiples of m at small ε. Both shares are spent
// through acct, so a budget whose share underflows to 0 is an error.
func (d *DPdK) generate2K(g *graph.Graph, acct *dp.Accountant, eps float64, rng *rand.Rand) (*graph.Graph, error) {
	epsTotal := eps * 0.1 // noisy edge count, global sensitivity 1
	for _, share := range []float64{epsTotal, eps - epsTotal} {
		if err := acct.Spend(share); err != nil {
			return nil, fmt.Errorf("dpdk: splitting budget %g: %w", eps, err)
		}
	}
	eps = eps - epsTotal
	mNoisy := dp.LaplaceMechanism(rng, float64(g.M()), 1, epsTotal)
	if mNoisy < 0 {
		mNoisy = 0
	}
	n := g.N()
	// The JDM lives in a flat degree-class arena instead of the legacy
	// map: distinct degrees are renumbered densely (D classes, D² cells,
	// far smaller than d_max²), and one pass counts each edge once into
	// its (class_j, class_k) cell.
	maxDeg := g.MaxDegree()
	present := make([]bool, maxDeg+1)
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(int32(u))
		present[deg[u]] = true
	}
	classOf := make([]int32, maxDeg+1)
	classDeg := make([]int, 0) // class index -> degree, ascending
	for d2 := 0; d2 <= maxDeg; d2++ {
		if present[d2] {
			classOf[d2] = int32(len(classDeg))
			classDeg = append(classDeg, d2)
		}
	}
	nc := len(classDeg)
	counts := make([]int64, nc*nc)
	for u := 0; u < n; u++ {
		cu := classOf[deg[u]]
		for _, v := range g.Neighbors(int32(u)) {
			if int32(u) < v {
				a, b := cu, classOf[deg[v]]
				if a > b {
					a, b = b, a
				}
				counts[int(a)*nc+int(b)]++
			}
		}
	}
	var scale float64
	if d.opt.GlobalSensitivity {
		// Global sensitivity of the JDM: removing an edge incident to a
		// degree-d node relocates up to 2(d_max+1) entries ⇒ O(n) worst
		// case. Use the worst-case bound 4·n for the ablation.
		scale = 4 * float64(n) / eps
	} else {
		// Smooth sensitivity: local sensitivity at Hamming distance t is
		// bounded by 4·(d_max + t + 1) (an edge flip moves the two endpoint
		// degrees, relocating at most their incident JDM entries).
		dmax := float64(maxDeg)
		beta, err := dp.Beta(eps, delta)
		if err != nil {
			return nil, err
		}
		s := dp.SmoothSensitivity(beta, n, func(t int) float64 {
			ls := 4 * (dmax + float64(t) + 1)
			cap4n := 4 * float64(n)
			if ls > cap4n {
				ls = cap4n
			}
			return ls
		})
		scale = 2 * s / eps
	}
	// Perturb the observed cells in ascending (j, k) order — the same
	// sequence the legacy sorted-map-key loop drew. Keep the perturbation
	// unbiased: clipping negatives while keeping positive noise would
	// inflate the edge total by Σ E[max(noise, 0)], so the clipped
	// entries are rescaled to preserve the (noisy) total mass — standard
	// consistency post-processing, privacy-free.
	entries := make([]gen.JDMEntry, 0, nc*2)
	clippedTotal := 0.0
	for a := 0; a < nc; a++ {
		for b := a; b < nc; b++ {
			if counts[a*nc+b] == 0 {
				continue
			}
			nv := float64(counts[a*nc+b]) + dp.Laplace(rng, scale)
			if nv > 0 {
				entries = append(entries, gen.JDMEntry{J: classDeg[a], K: classDeg[b], Count: nv})
				clippedTotal += nv
			}
		}
	}
	if clippedTotal > 0 {
		f := mNoisy / clippedTotal
		for i := range entries {
			entries[i].Count *= f
		}
	}
	return gen.BuildFrom2KEntries(entries, n, rng), nil
}
