package core

import (
	"strings"
	"testing"

	"pgb/internal/gen"
)

func TestExtendedCompareSelf(t *testing.T) {
	g := gen.PlantedPartition(100, 3, 0.4, 0.02, rng(1))
	p := ComputeProfileSeeded(g, ProfileOptions{}, rng(2).Int63())
	rows := ExtendedCompare(p, p)
	if len(rows) < 20 {
		t.Fatalf("extended rows = %d, want >= 20", len(rows))
	}
	for _, r := range rows {
		if r.HigherBetter {
			if r.Value < 1-1e-9 {
				t.Errorf("%s/%s self-score = %g, want 1", r.Query, r.Metric, r.Value)
			}
		} else if r.Value > 1e-6 {
			t.Errorf("%s/%s self-error = %g, want 0", r.Query, r.Metric, r.Value)
		}
	}
}

func TestExtendedCompareCoversCompanionMetrics(t *testing.T) {
	g := gen.GNM(60, 150, rng(3))
	p := ComputeProfileSeeded(g, ProfileOptions{}, rng(4).Int63())
	rows := ExtendedCompare(p, p)
	want := map[string]bool{"HD": false, "KS": false, "ARI": false, "AMI": false, "AvgF1": false, "MSE": false, "MRE": false}
	for _, r := range rows {
		if _, ok := want[r.Metric]; ok {
			want[r.Metric] = true
		}
	}
	//pgb:deterministic pure per-metric presence checks
	for m, seen := range want {
		if !seen {
			t.Errorf("companion metric %s missing", m)
		}
	}
	out := FormatExtended(rows)
	if !strings.Contains(out, "higher is better") || !strings.Contains(out, "lower is better") {
		t.Fatal("formatting lacks direction annotations")
	}
}

func TestRunAblationUnknown(t *testing.T) {
	if _, err := RunAblation("nope", "ER", 0.02, 1, 1); err == nil {
		t.Fatal("unknown ablation accepted")
	}
	if _, err := RunAblation("dgg-construction", "nope", 0.02, 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunAblationSmall(t *testing.T) {
	out, err := RunAblation("dgg-construction", "BA", 0.02, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bter", "chunglu", "|E|", "CD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationsRegistryComplete(t *testing.T) {
	abl := Ablations()
	for _, name := range []string{"tmf-filter", "dpdk-sensitivity", "dpdk-order", "dgg-construction", "privgraph-split", "privhrg-mcmc"} {
		vs, ok := abl[name]
		if !ok || len(vs) < 2 {
			t.Errorf("ablation %s missing or degenerate", name)
		}
		for _, v := range vs {
			if v.Label == "" || v.Generator == nil {
				t.Errorf("ablation %s has empty variant", name)
			}
		}
	}
}
