package main

import (
	"flag"
	"fmt"

	"pgb/internal/core"
	"pgb/internal/dp"
)

// cmdRecommend prints mechanism-selection guidance — the paper's closing
// contribution (§VII) turned into a tool. By default the static rules
// distilled from the paper's findings are applied; with -measured the
// recommendation is computed from a fresh (scaled-down) benchmark run
// restricted to the scenario.
func cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	nodes := fs.Int("nodes", 10000, "approximate graph size |V|")
	acc := fs.Float64("acc", 0.1, "approximate average clustering coefficient")
	eps := fs.Float64("eps", 1.0, "privacy requirement")
	queryList := fs.String("queries", "", "comma-separated query symbols the analyst cares about (e.g. CD,Mod,DegDist)")
	measured := fs.Bool("measured", false, "rank from a fresh benchmark run instead of the static rules")
	scale := fs.Float64("scale", 0.05, "dataset size factor for -measured")
	seed := fs.Int64("seed", 42, "random seed for -measured")
	jobs := fs.Int("jobs", 0, "max concurrent grid cells for -measured (0 = GOMAXPROCS); results are identical at any -jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := dp.CheckEpsilon(*eps); err != nil {
		return fmt.Errorf("-eps: %w", err)
	}
	// Written so that NaN fails: every comparison with NaN is false.
	if !(*acc >= 0 && *acc <= 1) {
		return fmt.Errorf("-acc must be in [0, 1], got %g", *acc)
	}
	scenario := core.Scenario{Nodes: *nodes, ACC: *acc, Epsilon: *eps}
	if *queryList != "" {
		qs, err := core.ParseQueries(splitList(*queryList))
		if err != nil {
			return err
		}
		scenario.Queries = qs
	}
	if *measured {
		// The scaled run is restricted to the scenario: only the queries
		// the analyst named are evaluated (empty = all fifteen), so the
		// grid skips every unselected profile pass instead of computing
		// all query groups and discarding most of them.
		res, err := core.Run(core.Config{
			Scale:   *scale,
			Reps:    2,
			Seed:    *seed,
			Queries: scenario.Queries,
			Workers: *jobs,
		})
		if err != nil {
			return err
		}
		fmt.Print(core.FormatRecommendations(scenario, core.RecommendFromResults(res, scenario)))
		return nil
	}
	fmt.Print(core.FormatRecommendations(scenario, core.Recommend(scenario)))
	return nil
}
