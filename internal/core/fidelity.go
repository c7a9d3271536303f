package core

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"pgb/internal/metrics"
)

// fidelity.go defines the fidelity gate's data contract (DESIGN.md §12):
// ONE pinned grid definition shared by the qualitative fidelity tests,
// the `pgb fidelity` runner, and `cmd/fidelitygate`, so the test suite
// and the CI gate can never disagree about what "the fidelity grid" is,
// and the JSON manifest (FIDELITY_PR.json / FIDELITY_BASELINE.json)
// holding per-(cell, query) tolerance intervals derived from the spread
// across the pinned seeds.

// FidelityGridDef pins one fidelity grid: the (M, G, P) subset, the
// per-run repetition count and scale, and the master seeds the grid is
// repeated across. Every value is part of the gate contract — two
// manifests are comparable only when their definitions match (Key).
type FidelityGridDef struct {
	Algorithms []string
	Datasets   []string
	Epsilons   []float64
	Reps       int
	Scale      float64
	// BaseSeed seeds the first repetition; repetition i runs with master
	// seed BaseSeed+i. Seeds is the repetition count (≥ 2 for a
	// non-degenerate spread; the committed grid uses 5).
	BaseSeed int64
	Seeds    int
}

// FidelityGrid returns the pinned grid definition: the full paper
// mechanism and dataset axes at the small budget subset {0.1, 1, 10},
// scale 0.1, two in-run repetitions, repeated across five master seeds
// starting at 42. The qualitative fidelity tests consume seed BaseSeed
// of exactly this grid.
func FidelityGrid() FidelityGridDef {
	return FidelityGridDef{
		Algorithms: AlgorithmNames(),
		Datasets:   nil, // resolved to the paper's eight by Config
		Epsilons:   []float64{0.1, 1, 10},
		Reps:       2,
		Scale:      0.1,
		BaseSeed:   42,
		Seeds:      5,
	}
}

// SeedList enumerates the master seeds the grid is repeated across.
func (d FidelityGridDef) SeedList() []int64 {
	seeds := make([]int64, d.Seeds)
	for i := range seeds {
		seeds[i] = d.BaseSeed + int64(i)
	}
	return seeds
}

// Config builds the core run configuration for one master seed of the
// grid. Workers is a pure scheduling knob (results are worker-count-
// invariant, DESIGN.md §2) and so is not part of the definition.
func (d FidelityGridDef) Config(seed int64, workers int) Config {
	return Config{
		Algorithms: append([]string(nil), d.Algorithms...),
		Datasets:   append([]string(nil), d.Datasets...),
		Epsilons:   append([]float64(nil), d.Epsilons...),
		Reps:       d.Reps,
		Scale:      d.Scale,
		Seed:       seed,
		Workers:    workers,
	}
}

// Key canonically encodes everything that affects the grid's values.
// fidelitygate refuses to compare manifests with different keys: a
// drifted value is only meaningful against a baseline of the same grid.
func (d FidelityGridDef) Key() string {
	cfg := d.Config(0, 0).Normalized()
	var sb strings.Builder
	fmt.Fprintf(&sb, "algs=%s;datasets=%s;eps=", strings.Join(cfg.Algorithms, ","), strings.Join(cfg.Datasets, ","))
	for i, e := range cfg.Epsilons {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%g", e)
	}
	fmt.Fprintf(&sb, ";reps=%d;scale=%g;base_seed=%d;seeds=%d", d.Reps, d.Scale, d.BaseSeed, d.Seeds)
	return sb.String()
}

// Tolerance floors for the fidelity intervals: benign numerical drift
// (e.g. a refactor reordering a float accumulation) may move a value by
// a few percent of its magnitude even when the pinned seeds agree
// exactly; anything beyond max(seed spread, these floors) is a utility
// regression.
const (
	FidelityRelFloor = 0.05
	FidelityAbsFloor = 1e-9
)

// FidelitySchema versions the manifest format.
const FidelitySchema = "pgb-fidelity/1"

// FidelityCell is one grid cell's aggregated error distribution: the
// arrays are parallel to the manifest's Queries list.
type FidelityCell struct {
	Algorithm string  `json:"algorithm"`
	Dataset   string  `json:"dataset"`
	Epsilon   float64 `json:"epsilon"`
	// Mean is the per-query error averaged across the pinned seeds; Lo
	// and Hi bound the tolerance interval a comparable run's mean must
	// fall into; StdDev is the across-seed spread.
	Mean   []float64 `json:"mean"`
	Lo     []float64 `json:"lo"`
	Hi     []float64 `json:"hi"`
	StdDev []float64 `json:"stddev"`
}

// FidelityManifest is the FIDELITY_PR.json / FIDELITY_BASELINE.json
// document: provenance metadata (including the grid Key), the query
// symbols the per-cell arrays are indexed by, and one entry per cell.
type FidelityManifest struct {
	Schema  string            `json:"schema"`
	Meta    map[string]string `json:"meta"`
	Queries []string          `json:"queries"`
	Cells   []FidelityCell    `json:"cells"`
}

// RunFidelity executes the pinned grid once per master seed and
// aggregates the per-(cell, query) error distribution into a manifest.
// The output is deterministic: same definition, same bytes, on any
// worker count. A failed cell or a non-finite error value is an error —
// a poisoned profile must fail the fidelity pipeline loudly, not be
// summarised into a NaN interval that every later comparison would
// vacuously pass or fail.
func RunFidelity(def FidelityGridDef, workers int, progress func(string)) (*FidelityManifest, error) {
	if def.Seeds < 2 {
		return nil, fmt.Errorf("core: fidelity grid needs at least 2 seeds for a spread, have %d", def.Seeds)
	}
	seeds := def.SeedList()
	runs := make([]*Results, len(seeds))
	for i, seed := range seeds {
		cfg := def.Config(seed, workers)
		cfg.Progress = progress
		if progress != nil {
			progress(fmt.Sprintf("fidelity seed %d/%d (master seed %d)", i+1, len(seeds), seed))
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: fidelity run with seed %d: %w", seed, err)
		}
		for j := range res.Cells {
			if cerr := res.Cells[j].Err; cerr != nil {
				c := &res.Cells[j]
				return nil, fmt.Errorf("core: fidelity cell (%s, %s, eps=%g) failed under seed %d: %w",
					c.Algorithm, c.Dataset, c.Epsilon, seed, cerr)
			}
		}
		runs[i] = res
	}

	// Every seed's cell j must be the first seed's cell j over the run's
	// query list, so the samples below line up.
	first, qs := runs[0], runs[0].Queries()
	for si, res := range runs {
		if len(res.Cells) != len(first.Cells) {
			return nil, fmt.Errorf("core: fidelity seed %d produced %d cells, seed %d produced %d",
				seeds[si], len(res.Cells), seeds[0], len(first.Cells))
		}
		for j := range res.Cells {
			c, head := &res.Cells[j], &first.Cells[j]
			if c.Algorithm != head.Algorithm || c.Dataset != head.Dataset || c.Epsilon != head.Epsilon || !slices.Equal(c.Queries, qs) {
				return nil, fmt.Errorf("core: fidelity record misalignment at cell (%s, %s, eps=%g) under seed %d",
					head.Algorithm, head.Dataset, head.Epsilon, seeds[si])
			}
		}
	}

	m := &FidelityManifest{
		Schema: FidelitySchema,
		Meta: map[string]string{
			"grid":   def.Key(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"go":     runtime.Version(),
		},
	}
	for _, q := range qs {
		m.Queries = append(m.Queries, q.String())
	}
	samples := make([]float64, len(runs))
	for j := range first.Cells {
		head := &first.Cells[j]
		cell := FidelityCell{
			Algorithm: head.Algorithm,
			Dataset:   head.Dataset,
			Epsilon:   head.Epsilon,
			Mean:      make([]float64, len(qs)),
			Lo:        make([]float64, len(qs)),
			Hi:        make([]float64, len(qs)),
			StdDev:    make([]float64, len(qs)),
		}
		for qi, q := range qs {
			for si, res := range runs {
				samples[si] = res.Cells[j].Errors[qi]
			}
			iv, err := metrics.ToleranceInterval(samples, FidelityRelFloor, FidelityAbsFloor)
			if err != nil {
				return nil, fmt.Errorf("core: fidelity cell (%s, %s, eps=%g) query %s: %w",
					head.Algorithm, head.Dataset, head.Epsilon, q, err)
			}
			cell.Mean[qi] = metrics.Mean(samples)
			cell.Lo[qi] = iv.Lo
			cell.Hi[qi] = iv.Hi
			cell.StdDev[qi] = metrics.StdDev(samples)
		}
		m.Cells = append(m.Cells, cell)
	}
	return m, nil
}

// WriteFidelityManifest writes the manifest as indented JSON.
func WriteFidelityManifest(path string, m *FidelityManifest) error {
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding fidelity manifest: %w", err)
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// ReadFidelityManifest reads and validates a manifest: malformed JSON, a
// wrong schema tag, or per-cell arrays that do not match the query list
// are errors — a gate must never run against a half-parsed baseline.
func ReadFidelityManifest(path string) (*FidelityManifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m FidelityManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("core: parsing fidelity manifest %s: %w", path, err)
	}
	if m.Schema != FidelitySchema {
		return nil, fmt.Errorf("core: %s has schema %q, want %q", path, m.Schema, FidelitySchema)
	}
	if len(m.Queries) == 0 {
		return nil, fmt.Errorf("core: %s declares no queries", path)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		if len(c.Mean) != len(m.Queries) || len(c.Lo) != len(m.Queries) || len(c.Hi) != len(m.Queries) || len(c.StdDev) != len(m.Queries) {
			return nil, fmt.Errorf("core: %s cell (%s, %s, eps=%g) arrays do not match the %d-query list",
				path, c.Algorithm, c.Dataset, c.Epsilon, len(m.Queries))
		}
	}
	return &m, nil
}
