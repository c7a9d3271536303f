package core

import (
	"fmt"

	"pgb/internal/algo"
	"pgb/internal/algo/der"
	"pgb/internal/algo/dgg"
	"pgb/internal/algo/dpdk"
	"pgb/internal/algo/ldpgen"
	"pgb/internal/algo/privgraph"
	"pgb/internal/algo/privhrg"
	"pgb/internal/algo/privskg"
	"pgb/internal/algo/rnl"
	"pgb/internal/algo/tmf"
)

// mechanism is one row of an algorithm axis: the name the grid and the
// tables use, the generator it runs, and its theoretical time and space
// complexity (Table VIII). One generator value serves every cell and
// request (see algo.Generator).
type mechanism struct {
	name        string
	gen         algo.Generator
	time, space string
}

// mechanisms is the paper's mechanism element M in table order — the six
// benchmarked mechanisms, then the DER appendix baseline and the LDPGen
// and RNL Edge-LDP extensions — each at its paper parameterisation. It
// is the only place in the codebase that enumerates the mechanisms.
var mechanisms = []mechanism{
	{"DP-dK", dpdk.Default(), "O(n^2)", "O(n^2)"},
	// the paper's re-implementation stores the adjacency matrix, hence
	// O(n²) space; the filter itself is O(m) time
	{"TmF", tmf.Default(), "O(n^2)", "O(n^2)"},
	// the smooth sensitivity of the moment estimator dominates
	{"PrivSKG", privskg.Default(), "O(n^2 m)", "O(n^2)"},
	{"PrivHRG", privhrg.Default(), "O(n^2 log n)", "O(m + n)"},
	{"PrivGraph", privgraph.Default(), "O(n^2)", "O(m + n)"},
	{"DGG", dgg.Default(), "O(n^2)", "O(n^2)"},
	{"DER", der.Default(), "O(n^2)", "O(n^2)"},
	// the k-means over n noisy vectors dominates
	{"LDPGen", ldpgen.Default(), "O(n k)", "O(n k)"},
	// formally the mechanism touches every adjacency bit
	{"RNL", rnl.Default(), "O(n^2)", "O(n^2)"},
}

// benchmarked is the number of leading rows of mechanisms the paper's grid
// runs by default.
const benchmarked = 6

// AlgorithmNames returns the six benchmarked mechanisms in the paper's
// table order.
func AlgorithmNames() []string {
	names := make([]string, benchmarked)
	for i := range names {
		names[i] = mechanisms[i].name
	}
	return names
}

// NewAlgorithm returns a benchmark algorithm by name with its default
// (paper) parameterisation. The extension mechanisms (DER for the
// appendix, LDPGen and RNL for the Edge-LDP extension) are also
// available.
func NewAlgorithm(name string) (algo.Generator, error) {
	m, err := lookup(mechanisms, name)
	return m.gen, err
}

// lookup returns the row of axis with the given name.
func lookup(axis []mechanism, name string) (mechanism, error) {
	for _, m := range axis {
		if m.name == name {
			return m, nil
		}
	}
	return mechanism{}, fmt.Errorf("core: unknown algorithm %q", name)
}

// Epsilons returns the paper's privacy-budget grid P.
func Epsilons() []float64 { return []float64{0.1, 0.5, 1, 2, 5, 10} }
