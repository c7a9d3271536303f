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

// AlgorithmNames returns the six benchmarked mechanisms in the paper's
// table order.
func AlgorithmNames() []string {
	return []string{"DP-dK", "TmF", "PrivSKG", "PrivHRG", "PrivGraph", "DGG"}
}

// NewAlgorithm constructs a benchmark algorithm by name with its default
// (paper) parameterisation. The extension mechanisms (DER for the
// appendix, LDPGen and RNL for the Edge-LDP extension) are also
// constructible.
func NewAlgorithm(name string) (algo.Generator, error) {
	switch name {
	case "LDPGen":
		return ldpgen.Default(), nil
	case "RNL":
		return rnl.Default(), nil
	case "DP-dK":
		return dpdk.Default(), nil
	case "TmF":
		return tmf.Default(), nil
	case "PrivSKG":
		return privskg.Default(), nil
	case "PrivHRG":
		return privhrg.Default(), nil
	case "PrivGraph":
		return privgraph.Default(), nil
	case "DGG":
		return dgg.Default(), nil
	case "DER":
		return der.Default(), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %q", name)
}

// Epsilons returns the paper's privacy-budget grid P.
func Epsilons() []float64 { return []float64{0.1, 0.5, 1, 2, 5, 10} }
