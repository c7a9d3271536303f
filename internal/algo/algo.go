// Package algo defines the common contract for PGB's differentially
// private synthetic-graph generation algorithms. Every mechanism — DP-dK,
// TmF, PrivSKG, PrivHRG, PrivGraph, DGG and the DER appendix baseline —
// implements Generator and follows the paper's three-stage framework:
// representation, perturbation, construction.
package algo

import (
	"math/rand"
	"runtime"

	"pgb/internal/graph"
	"pgb/internal/par"
)

// Generator is a differentially private synthetic-graph generator.
// Generate consumes the input graph and a total privacy budget ε and
// returns a synthetic graph over the same node universe. Implementations
// satisfy ε-Edge-CDP, composing their internal stages sequentially
// within ε. The two smooth-sensitivity mechanisms, DP-dK's default dK-2
// model and PrivSKG, satisfy (ε, δ)-Edge-CDP with δ = 0.01. A generator
// holds only its options and never mutates them, so one value serves
// concurrent calls.
type Generator interface {
	// Generate produces a synthetic graph from g under budget eps.
	// All randomness (both DP noise and construction sampling) is drawn
	// from rng, so runs are reproducible from a seed. p bounds the
	// workers of the generator's sharded passes; the output is
	// bit-identical at every worker count (DESIGN.md §10), so p is a
	// schedule, never a value change.
	Generate(g *graph.Graph, eps float64, rng *rand.Rand, p Params) (*graph.Graph, error)
}

// Params carries the execution-only knobs of a generation call: how many
// concurrent shard workers the generator may use and which shared
// allowance they are drawn from. Params never affects results — the
// generation layer is worker-count-invariant by construction (DESIGN.md
// §10): every DP noise and sampling draw comes off the caller's rng in
// the serial order, and the sharded passes compute deterministic values
// merged exactly.
type Params struct {
	// Workers bounds the concurrent workers of the generator's sharded
	// passes, including the calling goroutine. 0 selects GOMAXPROCS;
	// 1 forces the fully serial path.
	Workers int
	// Budget, when non-nil, is the externally owned worker allowance
	// helpers are drawn from — the grid runner threads its one run-wide
	// budget through cells, profiles, kernels, and generation so the
	// layers never oversubscribe Config.Workers. nil spawns up to
	// Workers−1 helpers unconditionally.
	Budget *par.Budget
}

// effectiveWorkers resolves the Workers default.
func (p Params) effectiveWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn over fixed-grain blocks of [0, n) on up to Workers
// concurrent goroutines drawn from the params' budget — the sharded-pass
// primitive of the parallel generators. The decomposition depends only
// on n and grain, so passes with exact merges are worker-count-invariant.
func (p Params) ForEach(n, grain int, fn func(lo, hi int)) {
	par.ForEachBlock(p.Budget, p.effectiveWorkers(), n, grain, fn)
}
