package pgb_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pgb"
)

// TestLoadThroughStore covers the store seam end to end: a snapshot put
// under the Source's canonical Ref resolves to the identical graph, and
// a store miss generates without writing back.
func TestLoadThroughStore(t *testing.T) {
	src := pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 3}
	gen, err := pgb.Load(src)
	if err != nil {
		t.Fatal(err)
	}

	store, err := pgb.OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Put(src.Ref(), gen); err != nil {
		t.Fatal(err)
	}
	src.Store = store
	snap, err := pgb.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if snap.N() != gen.N() || snap.M() != gen.M() || snap.Fingerprint() != gen.Fingerprint() {
		t.Fatalf("snapshot-resolved graph differs: n=%d m=%d fp=%016x, want n=%d m=%d fp=%016x",
			snap.N(), snap.M(), snap.Fingerprint(), gen.N(), gen.M(), gen.Fingerprint())
	}

	// A miss falls back to generation and stays a miss: Load never
	// writes to the store behind the caller's back.
	mem := pgb.NewMemStore()
	missSrc := pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 3, Store: mem}
	missed, err := pgb.Load(missSrc)
	if err != nil {
		t.Fatal(err)
	}
	if missed.Fingerprint() != gen.Fingerprint() {
		t.Fatal("store-miss fallback generated a different graph")
	}
	if mem.Has(missSrc.Ref()) {
		t.Fatal("Load wrote a store miss back implicitly")
	}
}

// TestSourceRefNormalizesScale: out-of-range scales collapse to the
// full-size key, matching what Load actually loads.
func TestSourceRefNormalizesScale(t *testing.T) {
	full := pgb.Source{Dataset: "ER", Scale: 1, Seed: 3}.Ref()
	if zero := (pgb.Source{Dataset: "ER", Seed: 3}).Ref(); zero != full {
		t.Fatalf("zero scale keyed %+v, full scale keyed %+v", zero, full)
	}
}

// TestPublicAPIErrorsNeverPanic is the API audit in table form: every
// public entry point answers bad input with an error, not a panic.
func TestPublicAPIErrorsNeverPanic(t *testing.T) {
	small, err := pgb.Load(pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fileNotDir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(fileNotDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"load-unknown-dataset", func() error {
			_, err := pgb.Load(pgb.Source{Dataset: "nope", Scale: 1, Seed: 1})
			return err
		}},
		{"generate-unknown-algorithm", func() error {
			_, err := pgb.Generate("nope", small, 1, 1)
			return err
		}},
		{"generate-nil-graph", func() error {
			_, err := pgb.Generate("TmF", nil, 1, 1)
			return err
		}},
		{"generate-nonpositive-eps", func() error {
			_, err := pgb.Generate("TmF", small, 0, 1)
			return err
		}},
		{"run-unknown-algorithm", func() error {
			_, err := pgb.RunBenchmark(pgb.BenchmarkConfig{
				Algorithms: []string{"nope"}, Datasets: []string{"ER"},
				Epsilons: []float64{1}, Reps: 1, Scale: 0.05, Seed: 1,
			})
			return err
		}},
		{"run-unknown-dataset", func() error {
			_, err := pgb.RunBenchmark(pgb.BenchmarkConfig{
				Algorithms: []string{"TmF"}, Datasets: []string{"nope"},
				Epsilons: []float64{1}, Reps: 1, Scale: 0.05, Seed: 1,
			})
			return err
		}},
		{"resume-missing-manifest", func() error {
			_, err := pgb.Resume(filepath.Join(t.TempDir(), "absent.jsonl"))
			return err
		}},
		{"register-query-nil-compute", func() error {
			_, err := pgb.RegisterQuery(pgb.CustomQuery{Symbol: "NoCompute"})
			return err
		}},
		{"open-snapshot-store-over-file", func() error {
			_, err := pgb.OpenSnapshotStore(filepath.Join(fileNotDir, "sub"))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := tc.call(); err == nil {
				t.Fatal("bad input accepted without error")
			}
		})
	}
}

// TestCompareNilGraphs: the comparison entry points degrade nil inputs
// to the empty graph instead of panicking.
func TestCompareNilGraphs(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Compare panicked on nil graphs: %v", r)
		}
	}()
	rep := pgb.Compare(nil, nil, 1)
	if len(rep.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rep.Rows))
	}
}

// TestRunBenchmarkSnapshotParity is the acceptance check of the PR: a
// grid run whose datasets come from ingested snapshots is bit-identical
// to the in-RAM run — same errors, same stddevs, cell for cell.
func TestRunBenchmarkSnapshotParity(t *testing.T) {
	base := pgb.BenchmarkConfig{
		Algorithms: []string{"TmF"},
		Datasets:   []string{"ER", "BA"},
		Epsilons:   []float64{1},
		Reps:       2,
		Scale:      0.05,
		Seed:       7,
	}
	ram, err := pgb.RunBenchmark(base)
	if err != nil {
		t.Fatal(err)
	}

	store, err := pgb.OpenSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// First pass ingests the misses; it must already match the RAM run.
	ingest := base
	ingest.Store = store
	ingest.IngestMisses = true
	if _, err := pgb.RunBenchmark(ingest); err != nil {
		t.Fatal(err)
	}
	for _, ds := range base.Datasets {
		ref := pgb.Source{Dataset: ds, Scale: base.Scale, Seed: base.Seed}.Ref()
		if !store.Has(ref) {
			t.Fatalf("ingesting run did not persist %v", ref)
		}
	}

	// Second pass resolves every dataset from its snapshot.
	fromSnap := base
	fromSnap.Store = store
	snap, err := pgb.RunBenchmark(fromSnap)
	if err != nil {
		t.Fatal(err)
	}

	if len(snap.Cells) != len(ram.Cells) {
		t.Fatalf("cell count %d vs %d", len(snap.Cells), len(ram.Cells))
	}
	for i := range ram.Cells {
		a, b := &ram.Cells[i], &snap.Cells[i]
		if a.Algorithm != b.Algorithm || a.Dataset != b.Dataset || a.Epsilon != b.Epsilon {
			t.Fatalf("cell %d coordinates diverge: %+v vs %+v", i, a, b)
		}
		for j := range a.Errors {
			if math.Float64bits(a.Errors[j]) != math.Float64bits(b.Errors[j]) {
				t.Fatalf("cell %d error %d: %v (RAM) vs %v (snapshot)", i, j, a.Errors[j], b.Errors[j])
			}
			if math.Float64bits(a.StdDev[j]) != math.Float64bits(b.StdDev[j]) {
				t.Fatalf("cell %d stddev %d: %v (RAM) vs %v (snapshot)", i, j, a.StdDev[j], b.StdDev[j])
			}
		}
	}
}
