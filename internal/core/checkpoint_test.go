package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// checkpointConfig is a fast grid for checkpoint tests: 2×2×2 cells on
// the two cheapest mechanisms and the two smallest synthetic datasets,
// restricted to three queries.
func checkpointConfig(path string) Config {
	return Config{
		Algorithms:     []string{"TmF", "DGG"},
		Datasets:       []string{"ER", "BA"},
		Epsilons:       []float64{0.5, 5},
		Queries:        []QueryID{QNumEdges, QTriangles, QDegreeDistribution},
		Reps:           2,
		Scale:          0.02,
		Seed:           17,
		CheckpointPath: path,
	}
}

// assertSameCellValues compares the deterministic fields of two runs.
// Measurement fields (GenSeconds, GenBytes) are wall-clock observations
// and are exempt.
func assertSameCellValues(t *testing.T, a, b *Results) {
	t.Helper()
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Algorithm != cb.Algorithm || ca.Dataset != cb.Dataset || ca.Epsilon != cb.Epsilon {
			t.Fatalf("cell %d identity differs: %+v vs %+v", i, ca, cb)
		}
		if !reflect.DeepEqual(ca.Queries, cb.Queries) {
			t.Fatalf("cell %d queries differ: %v vs %v", i, ca.Queries, cb.Queries)
		}
		if !reflect.DeepEqual(ca.Errors, cb.Errors) {
			t.Fatalf("cell %d errors differ:\n%v\n%v", i, ca.Errors, cb.Errors)
		}
		if !reflect.DeepEqual(ca.StdDev, cb.StdDev) {
			t.Fatalf("cell %d stddev differ:\n%v\n%v", i, ca.StdDev, cb.StdDev)
		}
	}
}

// TestRunParallelMatchesSerial is the scheduler determinism contract:
// Workers > 1 produces bit-identical cell values to Workers = 1.
func TestRunParallelMatchesSerial(t *testing.T) {
	serial := checkpointConfig("")
	serial.Workers = 1
	a, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := checkpointConfig("")
	parallel.Workers = 4
	b, err := Run(parallel)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCellValues(t, a, b)
}

// countComputedCells counts "cell ... done/FAILED" progress lines — the
// cells the scheduler actually computed (restored cells emit none).
type progressCounter struct {
	lines []string
}

func (p *progressCounter) fn(s string) { p.lines = append(p.lines, s) }

func (p *progressCounter) computed() int {
	n := 0
	for _, s := range p.lines {
		if strings.Contains(s, "] cell ") {
			n++
		}
	}
	return n
}

func TestCheckpointResumeAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")

	// Reference: an uninterrupted checkpointed run.
	full, err := Run(checkpointConfig(path))
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash: keep the header and the first three cell
	// records, plus a torn partial write at the tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 9 { // header + 8 cells (+ empty tail element)
		t.Fatalf("manifest has %d lines, want 9+", len(lines))
	}
	const keep = 3
	truncated := strings.Join(lines[:1+keep], "") + `{"alg":"Tm`
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume must recompute exactly the missing cells and reproduce the
	// uninterrupted run's values.
	cfg, err := CheckpointConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	var pc progressCounter
	cfg.Progress = pc.fn
	resumed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCellValues(t, full, resumed)
	if got, want := pc.computed(), len(full.Cells)-keep; got != want {
		t.Fatalf("resume computed %d cells, want %d (progress: %q)", got, want, pc.lines)
	}

	// A second resume finds the manifest complete and computes nothing.
	var pc2 progressCounter
	cfg2, err := CheckpointConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg2.Progress = pc2.fn
	again, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCellValues(t, full, again)
	if pc2.computed() != 0 {
		t.Fatalf("complete manifest recomputed %d cells (progress: %q)", pc2.computed(), pc2.lines)
	}
}

// TestCheckpointTornTailWithoutNewline: a torn write can persist a
// record's complete JSON minus only its trailing '\n'. That line must
// not count into the valid prefix — a resuming writer would otherwise
// append the next record onto the same line, corrupting every later
// resume.
func TestCheckpointTornTailWithoutNewline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	full, err := Run(checkpointConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// header + 2 complete records + the 3rd record missing its newline
	torn := strings.Join(lines[:3], "") + strings.TrimSuffix(lines[3], "\n")
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCellValues(t, full, resumed)

	// The manifest must be fully parseable afterwards: 8 intact records,
	// no glued lines.
	_, cells, _, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(full.Cells) {
		t.Fatalf("manifest has %d records after torn-tail resume, want %d", len(cells), len(full.Cells))
	}
}

// A manifest whose header line is torn (no newline) is rejected with an
// explicit error rather than silently resumed against a glued line.
func TestCheckpointTornHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	h, err := os.ReadFile(mustManifest(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitAfter(string(h), "\n")[0]
	if err := os.WriteFile(path, []byte(strings.TrimSuffix(first, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(path); err == nil || !strings.Contains(err.Error(), "truncated manifest header") {
		t.Fatalf("torn header accepted, err = %v", err)
	}
}

// mustManifest runs a small checkpointed grid and returns its manifest
// path.
func mustManifest(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "seed.jsonl")
	if _, err := Run(checkpointConfig(path)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResumeOneCall(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	full, err := Run(checkpointConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCellValues(t, full, res)
	if res.Config.Seed != 17 || res.Config.Scale != 0.02 || res.Config.Reps != 2 {
		t.Fatalf("Resume lost config: %+v", res.Config)
	}
	if !reflect.DeepEqual(res.Config.Queries, checkpointConfig("").Queries) {
		t.Fatalf("Resume lost query selection: %v", res.Config.Queries)
	}
}

func TestCheckpointRejectsForeignConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	if _, err := Run(checkpointConfig(path)); err != nil {
		t.Fatal(err)
	}
	other := checkpointConfig(path)
	other.Seed = 99
	if _, err := Run(other); err == nil || !strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("foreign config accepted, err = %v", err)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-manifest")
	if err := os.WriteFile(path, []byte("hello\nworld\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(path); err == nil || !strings.Contains(err.Error(), "not a pgb run manifest") {
		t.Fatalf("garbage manifest accepted, err = %v", err)
	}
	if _, err := Resume(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

// TestCheckpointDigestIgnoresWorkers pins the resume ergonomics: a run
// checkpointed at one worker count resumes at any other.
func TestCheckpointDigestIgnoresWorkers(t *testing.T) {
	a := checkpointConfig("")
	a.Workers = 1
	b := checkpointConfig("")
	b.Workers = 8
	ha, hb := headerFor(a.withDefaults()), headerFor(b.withDefaults())
	if ha.Digest != hb.Digest {
		t.Fatalf("digest varies with Workers: %s vs %s", ha.Digest, hb.Digest)
	}
	c := checkpointConfig("")
	c.Epsilons = []float64{0.5}
	if headerFor(c.withDefaults()).Digest == ha.Digest {
		t.Fatal("digest blind to epsilon grid")
	}
	// Query ORDER matters: Errors/StdDev are positional in config order,
	// so a reordered selection must not resume an old manifest.
	d := checkpointConfig("")
	d.Queries = []QueryID{QTriangles, QNumEdges, QDegreeDistribution}
	if headerFor(d.withDefaults()).Digest == ha.Digest {
		t.Fatal("digest blind to query order")
	}
}

// TestCheckpointRecordsFailures: a cell whose generation fails is
// recorded with its error and not retried on resume.
func TestCheckpointFailedCellRoundTrip(t *testing.T) {
	res := CellResult{
		Algorithm: "TmF", Dataset: "ER", Epsilon: 1,
		Queries: []QueryID{QNumEdges},
		Errors:  []float64{0}, StdDev: []float64{0},
		Err: os.ErrDeadlineExceeded,
	}
	back := cellRecord(res).result()
	if back.Err == nil || back.Err.Error() != res.Err.Error() {
		t.Fatalf("error round-trip: %v", back.Err)
	}
}

// TestResumeCommittedManifests resumes copies of run manifests written
// by an earlier build (testdata/manifest-v1*.jsonl: a default grid and
// an anf-distance grid on three queries). The restored configuration
// must carry the header's digest, every recorded cell must be restored
// rather than recomputed, and the manifest must come back unchanged.
func TestResumeCommittedManifests(t *testing.T) {
	paths, err := filepath.Glob("testdata/manifest-v1*.jsonl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed manifests: %v", err)
	}
	for _, src := range paths {
		t.Run(filepath.Base(src), func(t *testing.T) {
			raw, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.jsonl")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			h, cells, _, err := loadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := CheckpointConfig(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := ConfigDigest(cfg); got != h.Digest {
				t.Fatalf("ConfigDigest of the restored config = %s, header digest %s", got, h.Digest)
			}
			var pc progressCounter
			cfg.Progress = pc.fn
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pc.computed() != 0 {
				t.Fatalf("resume recomputed %d cells (progress: %q)", pc.computed(), pc.lines)
			}
			if len(res.Cells) != len(cells) {
				t.Fatalf("resumed %d cells, manifest holds %d", len(res.Cells), len(cells))
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(raw) {
				t.Fatal("resuming a complete manifest rewrote it")
			}
		})
	}
}

// TestCheckpointConfigRefusesTuning: a header whose profile tuning is
// not the default cannot be reproduced by a Config, so CheckpointConfig
// refuses it with ErrManifestTuning instead of resuming a different run.
func TestCheckpointConfigRefusesTuning(t *testing.T) {
	raw, err := os.ReadFile("testdata/manifest-v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range [][2]string{
		{`"path_samples":64`, `"path_samples":32`},
		{`"exact_path_limit":2000`, `"exact_path_limit":10`},
		{`"evc_iterations":60`, `"evc_iterations":100`},
		{`"evc_iterations":60`, `"evc_iterations":60,"exact_diameter":true`},
	} {
		tuned := strings.Replace(string(raw), edit[0], edit[1], 1)
		if tuned == string(raw) {
			t.Fatalf("edit %q did not apply", edit[0])
		}
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, []byte(tuned), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckpointConfig(path); !errors.Is(err, ErrManifestTuning) {
			t.Errorf("%s: CheckpointConfig error = %v, want ErrManifestTuning", edit[1], err)
		}
	}
}

// TestRunRejectsInvalidEpsilon: a non-finite or non-positive budget on
// the ε axis fails the whole run before any dataset loads.
func TestRunRejectsInvalidEpsilon(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		var pc progressCounter
		cfg := checkpointConfig("")
		cfg.Epsilons = []float64{1, eps}
		cfg.Progress = pc.fn
		if _, err := Run(cfg); err == nil {
			t.Errorf("eps=%g: run succeeded", eps)
		}
		if len(pc.lines) != 0 {
			t.Errorf("eps=%g: run did work before failing: %q", eps, pc.lines)
		}
	}
}
