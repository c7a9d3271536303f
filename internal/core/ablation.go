package core

import (
	"fmt"
	"sort"
	"strings"

	"pgb/internal/algo"
	"pgb/internal/algo/dgg"
	"pgb/internal/algo/dpdk"
	"pgb/internal/algo/privgraph"
	"pgb/internal/algo/privhrg"
	"pgb/internal/algo/tmf"
)

// AblationVariant is one configuration of an algorithm under ablation.
type AblationVariant struct {
	Label     string
	Generator algo.Generator
}

// Ablations returns the design-choice ablations called out in DESIGN.md
// §7, keyed by ablation name.
func Ablations() map[string][]AblationVariant {
	return map[string][]AblationVariant{
		// TmF: linear-cost high-pass filter vs naive O(n²) matrix noise —
		// same mechanism, so utility should match while cost diverges.
		"tmf-filter": {
			{Label: "filter", Generator: tmf.Default()},
			{Label: "naive", Generator: tmf.New(tmf.Options{NaiveFullMatrix: true})},
		},
		// DP-dK: smooth vs global sensitivity calibration.
		"dpdk-sensitivity": {
			{Label: "smooth", Generator: dpdk.Default()},
			{Label: "global", Generator: dpdk.New(dpdk.Options{GlobalSensitivity: true})},
		},
		// DP-dK: dK-1 vs dK-2 representation.
		"dpdk-order": {
			{Label: "dK-2", Generator: dpdk.Default()},
			{Label: "dK-1", Generator: dpdk.New(dpdk.Options{Model: dpdk.DK1})},
		},
		// DGG: BTER vs plain Chung-Lu construction.
		"dgg-construction": {
			{Label: "bter", Generator: dgg.Default()},
			{Label: "chunglu", Generator: dgg.New(dgg.Options{UseChungLu: true})},
		},
		// PrivGraph: budget split across the three phases.
		"privgraph-split": {
			{Label: "equal", Generator: privgraph.Default()},
			{Label: "community-heavy", Generator: privgraph.New(privgraph.Options{Split: [3]float64{0.5, 0.25, 0.25}})},
			{Label: "degree-heavy", Generator: privgraph.New(privgraph.Options{Split: [3]float64{0.25, 0.5, 0.25}})},
		},
		// PrivHRG: MCMC chain length.
		"privhrg-mcmc": {
			{Label: "steps=2k", Generator: privhrg.New(privhrg.Options{MCMCSteps: 2000})},
			{Label: "steps=10k", Generator: privhrg.New(privhrg.Options{MCMCSteps: 10000})},
			{Label: "steps=40k", Generator: privhrg.New(privhrg.Options{MCMCSteps: 40000})},
		},
	}
}

// AblationQueries are the queries each ablation is judged on.
var ablationQueries = []QueryID{QNumEdges, QTriangles, QDegreeDistribution, QAvgClustering, QCommunityDetection}

// RunAblation executes one named ablation on one dataset across the ε
// grid and renders the per-variant error series.
func RunAblation(name, dataset string, scale float64, reps int, seed int64) (string, error) {
	cfg, resolve, err := ablationGrid(name, dataset)
	if err != nil {
		return "", err
	}
	cfg.Scale, cfg.Reps, cfg.Seed = scale, reps, seed
	res, err := run(cfg, resolve)
	if err != nil {
		return "", err
	}
	s := res.DatasetSummaries[dataset]
	title := fmt.Sprintf("Ablation %s on %s (n=%d, m=%d)", name, dataset, s.Nodes, s.Edges)
	return res.FormatSeries(title, ablationQueries, cfg.Datasets), nil
}

// ablationGrid returns the grid of one named ablation on one dataset,
// whose algorithm axis is the variant labels, and the resolver that maps
// each label to a fresh generator of its variant.
func ablationGrid(name, dataset string) (Config, func(string) (algo.Generator, error), error) {
	variants, ok := Ablations()[name]
	if !ok {
		names := make([]string, 0, len(Ablations()))
		for k := range Ablations() {
			names = append(names, k)
		}
		sort.Strings(names)
		return Config{}, nil, fmt.Errorf("core: unknown ablation %q (available: %s)", name, strings.Join(names, ", "))
	}
	cfg := Config{Datasets: []string{dataset}, Queries: ablationQueries}
	for _, v := range variants {
		cfg.Algorithms = append(cfg.Algorithms, v.Label)
	}
	resolve := func(label string) (algo.Generator, error) {
		for _, v := range Ablations()[name] {
			if v.Label == label {
				return v.Generator, nil
			}
		}
		return nil, fmt.Errorf("core: ablation %s has no variant %q", name, label)
	}
	return cfg, resolve, nil
}
