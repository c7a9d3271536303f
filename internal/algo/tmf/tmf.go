// Package tmf implements TmF — Top-m Filter (Nguyen, Imine & Rusinowitch,
// ASONAM 2015): differentially private publication of social graphs at
// linear cost.
//
// Representation: the adjacency matrix. Perturbation: Laplace noise on
// every cell, realised lazily through a high-pass filter so only O(m)
// work is done — true edges receive explicit noise and are kept when the
// noisy value passes the threshold θ; the (huge) population of zero cells
// is handled in aggregate, since the number of non-edges whose noise
// exceeds θ is Binomial(#non-edges, p_pass) and the passing cells are
// exchangeable, i.e. uniformly random non-edges. Construction: the top-m̃
// passing cells become the synthetic edge set, where m̃ is the noisy edge
// count.
//
// Privacy: ε = ε1 + ε2 with ε1 for the per-cell Laplace noise (sensitivity
// 1 under edge CDP) and ε2 for the noisy edge count (sensitivity 1).
package tmf

import (
	"math"
	"math/rand"
	"sync/atomic"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/graph"
)

// shardGrain is the block size of the sharded passes; fixed so the
// decomposition never depends on the worker count.
const shardGrain = 4096

// edgeCountFraction is the share of ε spent on the noisy edge count m̃;
// the rest perturbs matrix cells. The paper's implementation uses a small
// constant share.
const edgeCountFraction = 0.1

// Options configures TmF.
type Options struct {
	// NaiveFullMatrix disables the high-pass filter and adds explicit
	// Laplace noise to every cell — the O(n²) baseline TmF improves on.
	// Exposed for the filter ablation bench; infeasible above ~5k nodes.
	NaiveFullMatrix bool
}

// TmF is the Top-m Filter generator.
type TmF struct {
	opt Options
}

// New returns a TmF generator with the given options.
func New(opt Options) *TmF { return &TmF{opt: opt} }

// Default returns TmF with the paper's parameterisation.
func Default() *TmF { return New(Options{}) }

// Generate implements algo.Generator. TmF's hot loop IS its noise
// stream — one Laplace draw per true edge (per matrix cell in the naive
// ablation), order-pinned to rng — so the draws stay serial and the
// sharded work is everything deterministic around them: the naive
// path's adjacency-membership scan and the top-m̃ selection filter. The
// full sort of passing cells is replaced by an O(p) quickselect for the
// m̃-th score plus a sharded keep-filter; boundary ties are broken in
// scan order (the legacy unstable sort broke them arbitrarily; scores
// are continuous draws, so ties have probability zero). Output is
// bit-identical at any worker count.
func (t *TmF) Generate(g *graph.Graph, eps float64, rng *rand.Rand, prm algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	eps2 := eps * edgeCountFraction // edge count
	eps1 := eps - eps2              // cell noise
	if err := acct.Spend(eps2); err != nil {
		return nil, err
	}
	if err := acct.Spend(eps1); err != nil {
		return nil, err
	}

	n := g.N()
	m := g.M()
	totalPairs := float64(n) * float64(n-1) / 2

	// Stage 1: noisy edge count (sensitivity 1 under edge CDP).
	mNoisy := int(math.Round(dp.LaplaceMechanism(rng, float64(m), 1, eps2)))
	if mNoisy < 0 {
		mNoisy = 0
	}
	if float64(mNoisy) > totalPairs {
		mNoisy = int(totalPairs)
	}

	if t.opt.NaiveFullMatrix {
		return t.generateNaive(g, eps1, mNoisy, rng, prm), nil
	}

	// Stage 2: high-pass filter threshold. Following the paper, θ is
	// chosen so the expected number of passing non-edge cells matches the
	// noisy edge budget: for a zero cell, P(Lap(1/ε1) > θ) = exp(-ε1·θ)/2.
	// Solving (#nonEdges)·p = m̃ gives θ; θ is clamped to ≥ 1/2 so a true
	// edge (value 1) passes with probability > 1/2.
	nonEdges := totalPairs - float64(m)
	theta := 0.5
	if mNoisy > 0 && nonEdges > 0 {
		theta = math.Log(nonEdges/float64(mNoisy)) / eps1 / 2
		if theta < 0.5 {
			theta = 0.5
		}
	} else if mNoisy == 0 {
		theta = math.Inf(1)
	}

	edges := make([]graph.Edge, 0, mNoisy+m)
	scores := make([]float64, 0, mNoisy+m)

	// True edges: explicit noise 1 + Lap(1/ε1).
	for e := range g.EdgeSeq() {
		v := 1 + dp.Laplace(rng, 1/eps1)
		if v > theta {
			edges = append(edges, e)
			scores = append(scores, v)
		}
	}

	// Non-edges in aggregate: the count of passing zero cells is
	// Binomial(nonEdges, pPass); sample the count (normal approximation
	// for the huge population), then draw that many uniform non-edges,
	// deduplicated through a flat open-addressing set (no per-candidate
	// map allocations).
	if !math.IsInf(theta, 1) && nonEdges > 0 {
		pPass := math.Exp(-eps1*theta) / 2
		if theta < 0 {
			pPass = 1 - math.Exp(eps1*theta)/2
		}
		mean := nonEdges * pPass
		std := math.Sqrt(nonEdges * pPass * (1 - pPass))
		count := int(math.Round(mean + rng.NormFloat64()*std))
		if count < 0 {
			count = 0
		}
		if float64(count) > nonEdges {
			count = int(nonEdges)
		}
		seen := newEdgeSet(count)
		for seen.size < count {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			e := graph.Canon(u, v)
			if g.HasEdge(u, v) {
				continue
			}
			if !seen.insert(uint64(e.U)<<32 | uint64(uint32(e.V))) {
				continue
			}
			// Noise value conditioned on passing: θ + Exp(1/ε1) above θ.
			v2 := theta + rng.ExpFloat64()/eps1
			edges = append(edges, e)
			scores = append(scores, v2)
		}
	}

	// Stage 3: keep the top-m̃ passing cells.
	return graph.FromEdges(n, topM(edges, scores, mNoisy, prm)), nil
}

// generateNaive is the ablation baseline: noise every cell explicitly.
// The adjacency-membership of all n(n-1)/2 cells is precomputed by a
// row-sharded bitmask pass (deterministic, exact), so the serial noise
// loop does one bit test per cell instead of one binary search.
func (t *TmF) generateNaive(g *graph.Graph, eps1 float64, mNoisy int, rng *rand.Rand, prm algo.Params) *graph.Graph {
	n := g.N()
	if n < 2 {
		return graph.New(n)
	}
	mask := make([]uint64, (n*n+63)/64)
	prm.ForEach(n, 64, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(int32(u)) {
				if v > int32(u) {
					bit := u*n + int(v)
					atomic.OrUint64(&mask[bit>>6], 1<<(bit&63))
				}
			}
		}
	})
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	scores := make([]float64, 0, n*(n-1)/2)
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			val := 0.0
			bit := int(u)*n + int(v)
			if mask[bit>>6]&(1<<(bit&63)) != 0 {
				val = 1
			}
			edges = append(edges, graph.Edge{U: u, V: v})
			scores = append(scores, val+dp.Laplace(rng, 1/eps1))
		}
	}
	return graph.FromEdges(n, topM(edges, scores, mNoisy, prm))
}

// topM returns the edges of the k highest-scoring candidates. The k-th
// score is found by an O(p) quickselect on a copy; the keep-filter is
// block-sharded with per-block result lists concatenated in block order,
// so the kept set — including scan-order tie-breaking at the boundary —
// is identical at any worker count.
func topM(edges []graph.Edge, scores []float64, k int, prm algo.Params) []graph.Edge {
	if len(edges) <= k {
		return edges
	}
	if k <= 0 {
		return nil
	}
	thresh := kthLargest(append([]float64(nil), scores...), k)
	nblocks := (len(scores) + shardGrain - 1) / shardGrain
	keptPer := make([][]graph.Edge, nblocks)
	tiesPer := make([][]graph.Edge, nblocks)
	prm.ForEach(len(scores), shardGrain, func(lo, hi int) {
		var kept, ties []graph.Edge
		for i := lo; i < hi; i++ {
			if scores[i] > thresh {
				kept = append(kept, edges[i])
			} else if scores[i] == thresh {
				ties = append(ties, edges[i])
			}
		}
		keptPer[lo/shardGrain] = kept
		tiesPer[lo/shardGrain] = ties
	})
	out := make([]graph.Edge, 0, k)
	for _, kp := range keptPer {
		out = append(out, kp...)
	}
	need := k - len(out)
	for _, tp := range tiesPer {
		for _, e := range tp {
			if need <= 0 {
				return out
			}
			out = append(out, e)
			need--
		}
	}
	return out
}

// kthLargest returns the k-th largest value of s (1 ≤ k ≤ len(s)) by
// iterative quickselect with median-of-three pivoting; s is clobbered.
func kthLargest(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	target := k - 1 // index in descending order
	for lo < hi {
		// median-of-three pivot, deterministic in the data
		mid := lo + (hi-lo)/2
		if s[mid] > s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] > s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] > s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] > pivot {
				i++
			}
			for s[j] < pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			return s[target]
		}
	}
	return s[lo]
}

// edgeSet is a flat open-addressing set of packed (u << 32 | v) edge
// keys — the allocation-light replacement for the legacy
// map[graph.Edge]struct{} dedup in the non-edge sampling loop.
type edgeSet struct {
	slots []uint64 // key+1; 0 marks an empty slot
	mask  uint64
	size  int
}

func newEdgeSet(capHint int) *edgeSet {
	sz := 16
	for sz < 2*(capHint+1) {
		sz <<= 1
	}
	return &edgeSet{slots: make([]uint64, sz), mask: uint64(sz - 1)}
}

// insert adds key and reports whether it was absent.
func (s *edgeSet) insert(key uint64) bool {
	h := key + 1 // shift so key 0 (edge 0-0 never occurs, but be safe)
	// SplitMix64 finalizer as the hash
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key + 1
			s.size++
			return true
		case key + 1:
			return false
		}
	}
}
