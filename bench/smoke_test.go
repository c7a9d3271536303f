package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pgb"
	"pgb/internal/core"
)

// TestMain lets the test binary serve as its own worker child, as the
// harness binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := cmdWorker(os.Args[2:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for a handful of ops through the same
// code the command runs, measured and traced, and checks that each run
// is correct and reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pgb and runs every workload")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.buildPGB(); err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{"grid-cold": 1, "compare-served": 4, "runs-async": 2, "ingest-open": 2}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name == "grid-cold" {
				continue // a serial replay of the whole grid takes seconds; TestReplayMatchesRunBenchmark covers the replay
			}
			lim := limits{n: ops[w.name], setups: 1}
			rec, err := runOne(e, w, 1, lim, traced, filepath.Join(e.runDir, "spans.json"))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rec.correct() || rec.Attempted == 0 {
				t.Errorf("%s traced=%t: attempted %d, failed %d, failures %v", w.name, traced, rec.Attempted, rec.Failed, rec.Failures)
			}
			defs := endToEndDefs
			if traced {
				defs = nil
				for _, d := range layerDefs {
					defs = append(defs, d.metricDef)
				}
			}
			for _, d := range defs {
				if m, ok := rec.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%t: metric %s missing or not in %s", w.name, traced, d.name, d.unit)
				}
			}
		}
	}
}

// TestReplayMatchesRunBenchmark checks the layer-by-layer grid replay
// against pgb.RunBenchmark, bit for bit, with a generated and a
// store-resolved dataset and with both distance estimators the
// workloads use.
func TestReplayMatchesRunBenchmark(t *testing.T) {
	store := pgb.NewMemStore()
	src := pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 9}
	g, err := pgb.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(src.Ref(), g); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.DistanceMode{core.DistanceAuto, core.DistanceANF} {
		sp := replaySpec{
			algs:     []string{"TmF", "PrivGraph"},
			datasets: []string{"Facebook", "ER"},
			eps:      []float64{0.5, 2},
			scale:    0.05,
			seed:     9,
			mode:     mode,
			workers:  2,
		}
		cells, _, err := replayGrid(newTracer(), -1, 0, sp, store, make(map[string]bool))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pgb.RunBenchmark(pgb.BenchmarkConfig{
			Algorithms: sp.algs, Datasets: sp.datasets, Epsilons: sp.eps,
			Reps: 1, Scale: sp.scale, Seed: sp.seed, DistanceMode: mode, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []cellValues
		for _, c := range res.Cells {
			want = append(want, cellValues{Alg: c.Algorithm, DS: c.Dataset, Eps: c.Epsilon, Errors: c.Errors})
		}
		n, q := len(sp.algs)*len(sp.datasets)*len(sp.eps), len(pgb.Queries())
		got, err1 := checkCells(cells, n, q)
		exp, err2 := checkCells(want, n, q)
		if err1 != nil || err2 != nil || got != exp {
			t.Errorf("mode %q: replayed cells %s (%v) differ from RunBenchmark's %s (%v)", mode, got, err1, exp, err2)
		}
	}
}

// TestBenchmarkSpecMatchesHarness checks BENCHMARK.json against the
// metrics and workloads the harness reports.
func TestBenchmarkSpecMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, ours)
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %s %s %s", kind, i, l, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	var layers []metricDef
	for _, d := range layerDefs {
		layers = append(layers, d.metricDef)
	}
	check("per_layer", spec.PerLayer, layers)
}
