package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"pgb/internal/algo/dgg"
	"pgb/internal/algo/dpdk"
	"pgb/internal/algo/privgraph"
	"pgb/internal/algo/privhrg"
	"pgb/internal/algo/tmf"
)

// ablations are the design-choice ablations called out in DESIGN.md §7,
// keyed by ablation name. Each variant is a mechanism row named by its
// label; the grid runs the rows as its algorithm axis.
var ablations = map[string][]mechanism{
	// TmF: linear-cost high-pass filter vs naive O(n²) matrix noise —
	// same mechanism, so utility should match while cost diverges.
	"tmf-filter": {
		{name: "filter", gen: tmf.Default()},
		{name: "naive", gen: tmf.New(tmf.Options{NaiveFullMatrix: true})},
	},
	// DP-dK: smooth vs global sensitivity calibration.
	"dpdk-sensitivity": {
		{name: "smooth", gen: dpdk.Default()},
		{name: "global", gen: dpdk.New(dpdk.Options{GlobalSensitivity: true})},
	},
	// DP-dK: dK-1 vs dK-2 representation.
	"dpdk-order": {
		{name: "dK-2", gen: dpdk.Default()},
		{name: "dK-1", gen: dpdk.New(dpdk.Options{Model: dpdk.DK1})},
	},
	// DGG: BTER vs plain Chung-Lu construction.
	"dgg-construction": {
		{name: "bter", gen: dgg.Default()},
		{name: "chunglu", gen: dgg.New(dgg.Options{UseChungLu: true})},
	},
	// PrivGraph: budget split across the three phases.
	"privgraph-split": {
		{name: "equal", gen: privgraph.Default()},
		{name: "community-heavy", gen: privgraph.New(privgraph.Options{Split: [3]float64{0.5, 0.25, 0.25}})},
		{name: "degree-heavy", gen: privgraph.New(privgraph.Options{Split: [3]float64{0.25, 0.5, 0.25}})},
	},
	// PrivHRG: MCMC chain length.
	"privhrg-mcmc": {
		{name: "steps=2k", gen: privhrg.New(privhrg.Options{MCMCSteps: 2000})},
		{name: "steps=10k", gen: privhrg.New(privhrg.Options{MCMCSteps: 10000})},
		{name: "steps=40k", gen: privhrg.New(privhrg.Options{MCMCSteps: 40000})},
	},
}

// ablationQueries are the queries each ablation is judged on.
var ablationQueries = []QueryID{QNumEdges, QTriangles, QDegreeDistribution, QAvgClustering, QCommunityDetection}

// RunAblation executes one named ablation on one dataset across the ε
// grid and renders the per-variant error series.
func RunAblation(name, dataset string, scale float64, reps int, seed int64) (string, error) {
	cfg, variants, err := ablationGrid(name, dataset)
	if err != nil {
		return "", err
	}
	cfg.Scale, cfg.Reps, cfg.Seed = scale, reps, seed
	res, err := run(cfg, variants)
	if err != nil {
		return "", err
	}
	s := res.DatasetSummaries[dataset]
	title := fmt.Sprintf("Ablation %s on %s (n=%d, m=%d)", name, dataset, s.Nodes, s.Edges)
	return res.FormatSeries(title, ablationQueries, cfg.Datasets), nil
}

// ablationGrid returns the grid of one named ablation on one dataset,
// whose algorithm axis is the variant labels, and the variant rows.
func ablationGrid(name, dataset string) (Config, []mechanism, error) {
	variants, ok := ablations[name]
	if !ok {
		names := strings.Join(slices.Sorted(maps.Keys(ablations)), ", ")
		return Config{}, nil, fmt.Errorf("core: unknown ablation %q (available: %s)", name, names)
	}
	cfg := Config{Datasets: []string{dataset}, Queries: ablationQueries}
	for _, v := range variants {
		cfg.Algorithms = append(cfg.Algorithms, v.name)
	}
	return cfg, variants, nil
}
