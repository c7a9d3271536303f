package core

import (
	"errors"
	"os"
	"testing"
)

// TestFormatFig2Golden pins FormatFig2's exact text: the Fig. 2 block
// order (queries outer, Fig. 2 datasets inner, datasets outside the run
// skipped), sorted ε columns, and "-" for a failed cell and for queries
// the run did not evaluate. testdata/fig2.golden was captured from the
// renderer that predates FormatSeries.
func TestFormatFig2Golden(t *testing.T) {
	res, err := Run(Config{
		Algorithms: []string{"TmF", "DGG"},
		Datasets:   []string{"BA", "ER", "Facebook"},
		Epsilons:   []float64{5, 0.5},
		Queries:    []QueryID{QTriangles, QDegreeDistribution, QCommunityDetection},
		Reps:       1,
		Scale:      0.02,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Algorithm == "DGG" && c.Dataset == "ER" && c.Epsilon == 5 {
			c.Err = errors.New("injected")
		}
	}
	want, err := os.ReadFile("testdata/fig2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FormatFig2(); got != string(want) {
		t.Fatalf("FormatFig2 drifted from testdata/fig2.golden:\n%s\nwant:\n%s", got, want)
	}
}

// TestFormatSeriesWidensLongLabels: a label longer than ten characters
// widens every row label, the "eps:" header included, so columns align.
func TestFormatSeriesWidensLongLabels(t *testing.T) {
	res := &Results{Config: Config{Algorithms: []string{"community-heavy"}, Datasets: []string{"ER"}, Epsilons: []float64{1}}}
	want := "T\n\n[|E| (RE) on ER]\neps:                    1\ncommunity-heavy         -\n"
	if got := res.FormatSeries("T", []QueryID{QNumEdges}, []string{"ER"}); got != want {
		t.Fatalf("FormatSeries = %q, want %q", got, want)
	}
}

// TestSeriesWorkerInvariant: the appendix and ablation series run on the
// grid engine, so their text is identical at any worker count.
func TestSeriesWorkerInvariant(t *testing.T) {
	fig7 := func(workers int) string {
		out, err := Fig7(Config{Datasets: []string{"Facebook"}, Epsilons: []float64{0.5, 5}, Reps: 2, Scale: 0.02, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ablation := func(workers int) string {
		cfg, variants, err := ablationGrid("privgraph-split", "BA")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Epsilons, cfg.Reps, cfg.Scale, cfg.Seed, cfg.Workers = []float64{0.5, 5}, 2, 0.02, 5, workers
		res, err := run(cfg, variants)
		if err != nil {
			t.Fatal(err)
		}
		return res.FormatSeries("ablation", res.Queries(), cfg.Datasets)
	}
	for _, series := range []func(int) string{fig7, ablation} {
		if serial, parallel := series(1), series(4); serial != parallel {
			t.Errorf("series differ between Workers 1 and 4:\n%s\nvs\n%s", serial, parallel)
		}
	}
}
