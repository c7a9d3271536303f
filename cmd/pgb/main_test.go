package main

import (
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("splitList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitList = %v", got)
		}
	}
}

func TestGridFlagsConfig(t *testing.T) {
	gf := newGridFlags("test")
	if err := gf.fs.Parse([]string{"-scale", "0.2", "-reps", "4", "-eps", "0.5, 2", "-algs", "TmF,DGG", "-datasets", "ER"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := gf.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 0.2 || cfg.Reps != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if len(cfg.Epsilons) != 2 || cfg.Epsilons[1] != 2 {
		t.Fatalf("eps = %v", cfg.Epsilons)
	}
	if len(cfg.Algorithms) != 2 || cfg.Algorithms[0] != "TmF" {
		t.Fatalf("algs = %v", cfg.Algorithms)
	}
	if len(cfg.Datasets) != 1 || cfg.Datasets[0] != "ER" {
		t.Fatalf("datasets = %v", cfg.Datasets)
	}
}

func TestGridFlagsBadEps(t *testing.T) {
	gf := newGridFlags("test")
	if err := gf.fs.Parse([]string{"-eps", "abc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := gf.config(); err == nil || !strings.Contains(err.Error(), "bad -eps") {
		t.Fatalf("expected bad-eps error, got %v", err)
	}
}

func TestCmdDatasetsRuns(t *testing.T) {
	if err := cmdDatasets([]string{"-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdGridTable7Small(t *testing.T) {
	args := []string{"-scale", "0.02", "-reps", "1", "-algs", "DGG", "-datasets", "BA", "-eps", "1"}
	if err := cmdGrid("table7", args); err != nil {
		t.Fatal(err)
	}
}

func TestCmdVerifyUnknownAlg(t *testing.T) {
	if err := cmdVerify([]string{"-alg", "nope"}); err == nil {
		t.Fatal("unknown verification accepted")
	}
}

func TestCmdReportUnknowns(t *testing.T) {
	if err := cmdReport([]string{"-alg", "nope", "-scale", "0.02"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := cmdReport([]string{"-dataset", "nope", "-scale", "0.02"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCmdAblationUnknown(t *testing.T) {
	if err := cmdAblation([]string{"-name", "nope", "-scale", "0.02"}); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

// fig7 builds its configuration from the grid flags, so a bad axis value
// is rejected rather than silently replaced by Fig. 7's defaults.
func TestCmdFig7UsesGridFlags(t *testing.T) {
	if err := cmdFig7([]string{"-algs", "nope", "-scale", "0.02", "-reps", "1"}); err == nil {
		t.Fatal("unknown -algs accepted")
	}
	if err := cmdFig7([]string{"-eps", "abc"}); err == nil {
		t.Fatal("bad -eps accepted")
	}
}

// recommend takes a privacy budget and a clustering coefficient, so a
// budget that is not a finite ε > 0 or an ACC outside [0, 1] is an
// error, never a ranking — NaN included, which the -measured path would
// otherwise silently map to the grid's first ε.
func TestCmdRecommendRejectsInvalidScenario(t *testing.T) {
	for _, args := range [][]string{
		{"-eps", "NaN"},
		{"-eps", "0"},
		{"-eps", "-3"},
		{"-eps", "+Inf"},
		{"-eps", "NaN", "-measured"},
		{"-acc", "NaN"},
		{"-acc", "-0.1"},
		{"-acc", "1.5"},
	} {
		if err := cmdRecommend(args); err == nil {
			t.Errorf("recommend %v accepted", args)
		}
	}
	if err := cmdRecommend([]string{"-eps", "1", "-acc", "0.5", "-queries", "CD"}); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}
