package core

import (
	"fmt"
	"slices"
	"strings"

	"pgb/internal/datasets"
)

// FormatTypeAnalysis renders the "impact of graph dataset" analysis from
// §VI-A of the paper: best counts aggregated by graph *type* (the Table
// II taxonomy — social, web, academic, traffic, financial, technology,
// synthetic), showing which mechanism suits which domain.
func (r *Results) FormatTypeAnalysis() string {
	// dataset → type, and the types in first-seen order
	typeOf := map[string]string{}
	var types []string
	for _, ds := range r.Config.Datasets {
		tp := "File"
		if spec, err := datasets.ByName(ds); err == nil {
			tp = spec.Type
		}
		typeOf[ds] = tp
		if !slices.Contains(types, tp) {
			types = append(types, tp)
		}
	}
	counts := tally(r, r.Config.Datasets, r.Config.Epsilons, r.Queries(),
		func(ds string, _ float64, _ QueryID) string { return typeOf[ds] })

	var sb strings.Builder
	sb.WriteString("Graph-type analysis — best counts aggregated by domain (Table II taxonomy)\n")
	fmt.Fprintf(&sb, "%-12s", "Type")
	for _, alg := range r.Config.Algorithms {
		fmt.Fprintf(&sb, " %10s", alg)
	}
	sb.WriteString("   best\n")
	for _, tp := range types {
		fmt.Fprintf(&sb, "%-12s", tp)
		bestAlg, bestC := "", -1
		for _, alg := range r.Config.Algorithms {
			c := counts[tp][alg]
			fmt.Fprintf(&sb, " %10d", c)
			if c > bestC {
				bestC = c
				bestAlg = alg
			}
		}
		fmt.Fprintf(&sb, "   %s\n", bestAlg)
	}
	return sb.String()
}
