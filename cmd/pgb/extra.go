package main

import (
	"flag"
	"fmt"

	"pgb"
	"pgb/internal/core"
	"pgb/internal/datasets"
)

// cmdReport prints the extended multi-metric utility report for one
// (algorithm, dataset, ε) cell.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	algName := fs.String("alg", "PrivGraph", "algorithm name")
	dsName := fs.String("dataset", "Facebook", "dataset name")
	eps := fs.Float64("eps", 1.0, "privacy budget")
	scale := fs.Float64("scale", 0.1, "dataset size factor")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := datasets.ByName(*dsName)
	if err != nil {
		return err
	}
	g := spec.Load(*scale, *seed)
	syn, err := pgb.Generate(*algName, g, *eps, *seed+2)
	if err != nil {
		return err
	}
	truth := core.ComputeProfileSeeded(g, core.ProfileOptions{}, *seed+1)
	prof := core.ComputeProfileSeeded(syn, core.ProfileOptions{}, core.SubSeed(*seed+2, 1))
	fmt.Printf("%s on %s (n=%d, m=%d → m=%d) at eps=%g\n\n",
		*algName, *dsName, g.N(), g.M(), syn.M(), *eps)
	fmt.Print(core.FormatExtended(core.ExtendedCompare(truth, prof)))
	return nil
}

// cmdAblation runs one of the DESIGN.md §7 design-choice ablations.
func cmdAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	name := fs.String("name", "dgg-construction", "ablation name")
	dsName := fs.String("dataset", "Facebook", "dataset name")
	scale := fs.Float64("scale", 0.1, "dataset size factor")
	reps := fs.Int("reps", 3, "repetitions")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out, err := core.RunAblation(*name, *dsName, *scale, *reps, *seed)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// cmdLDP compares the Edge-LDP extension mechanisms against the
// centralised DGG baseline — the Remark-4 extension of the benchmark.
// Local mechanisms answer a strictly weaker trust model, so their errors
// should dominate DGG's at every ε; the printed series makes the gap
// concrete.
func cmdLDP(args []string) error {
	fs := flag.NewFlagSet("ldp", flag.ExitOnError)
	dsName := fs.String("dataset", "Facebook", "dataset name")
	scale := fs.Float64("scale", 0.1, "dataset size factor")
	reps := fs.Int("reps", 3, "repetitions")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := core.Run(core.Config{
		Algorithms: []string{"DGG", "LDPGen", "RNL"},
		Datasets:   []string{*dsName},
		Queries:    []core.QueryID{core.QNumEdges, core.QDegreeDistribution, core.QAvgClustering, core.QCommunityDetection},
		Reps:       *reps,
		Scale:      *scale,
		Seed:       *seed,
	})
	if err != nil {
		return err
	}
	s := res.DatasetSummaries[*dsName]
	title := fmt.Sprintf("Edge-LDP extension on %s (n=%d, m=%d); DGG is the Edge-CDP reference", *dsName, s.Nodes, s.Edges)
	fmt.Print(res.FormatSeries(title, res.Queries(), res.Config.Datasets))
	return nil
}
