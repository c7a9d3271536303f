package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"sync"
)

// checkpoint.go implements the durable run manifest behind
// Config.CheckpointPath and Resume. The format (DESIGN.md §5) is JSONL:
// a header line carrying the run configuration and its grid digest,
// followed by one line per finished cell, appended and flushed as cells
// complete. A process killed mid-run leaves at most one truncated
// trailing line; on resume the valid prefix is kept, the partial tail is
// discarded, and only the missing cells are recomputed.

// checkpointVersion is bumped on any incompatible manifest change.
const checkpointVersion = 1

// manifestHeader is the first line of a manifest: everything needed to
// reconstruct the run's Config (Progress excepted — callbacks are not
// serialisable) plus the digest that guards against resuming under a
// different configuration.
type manifestHeader struct {
	Version    int       `json:"pgb_checkpoint"`
	Digest     string    `json:"digest"`
	Algorithms []string  `json:"algorithms"`
	Datasets   []string  `json:"datasets"`
	Epsilons   []float64 `json:"epsilons"`
	// Queries holds QueryID values. Built-in queries (1..15) always
	// round-trip; custom IDs resolve only in a process that registered
	// the same custom queries in the same order.
	Queries []int   `json:"queries"`
	Reps    int     `json:"reps"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	Workers int     `json:"workers"`

	ExactPathLimit int `json:"exact_path_limit"`
	PathSamples    int `json:"path_samples"`
	EVCIterations  int `json:"evc_iterations"`
	// ExactDiameter is only read, to refuse a manifest that sets it: no
	// profile option selects the exact diameter. It stays in the digest,
	// so digests of earlier manifests do not change.
	ExactDiameter bool `json:"exact_diameter,omitempty"`
	// DistanceMode is the resolved Q7–Q9 estimator ("" = auto). It joins
	// the digest only when non-empty, so manifests written before the
	// field existed resume unchanged.
	DistanceMode string `json:"distance_mode,omitempty"`
}

// manifestCell is one finished cell. Queries are stored per cell so a
// record is self-describing even if the header is later extended.
type manifestCell struct {
	Algorithm  string    `json:"alg"`
	Dataset    string    `json:"ds"`
	Epsilon    float64   `json:"eps"`
	Queries    []int     `json:"queries"`
	Errors     []float64 `json:"errors"`
	StdDev     []float64 `json:"stddev"`
	GenSeconds float64   `json:"gen_seconds"`
	GenBytes   float64   `json:"gen_bytes"`
	Err        string    `json:"err,omitempty"`
}

func headerFor(cfg Config) manifestHeader {
	h := manifestHeader{
		Version:        checkpointVersion,
		Algorithms:     cfg.Algorithms,
		Datasets:       cfg.Datasets,
		Epsilons:       cfg.Epsilons,
		Queries:        queryInts(cfg.Queries),
		Reps:           cfg.Reps,
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
		ExactPathLimit: exactPathLimit,
		PathSamples:    pathSamples,
		EVCIterations:  evcIterations,
		DistanceMode:   string(cfg.DistanceMode),
	}
	h.Digest = h.digest()
	return h
}

// ErrManifestTuning is returned by CheckpointConfig for a manifest whose
// profile tuning (exact_path_limit, path_samples, evc_iterations,
// exact_diameter) differs from the profile constants: a Config cannot set
// those knobs, so the run it records cannot be reproduced.
var ErrManifestTuning = errors.New("core: manifest profile tuning differs from the defaults")

// config reconstructs the Config a manifest was written under.
func (h manifestHeader) config() (Config, error) {
	if h.ExactPathLimit != exactPathLimit || h.PathSamples != pathSamples ||
		h.EVCIterations != evcIterations || h.ExactDiameter {
		return Config{}, fmt.Errorf("%w: exact_path_limit %d, path_samples %d, evc_iterations %d, exact_diameter %t",
			ErrManifestTuning, h.ExactPathLimit, h.PathSamples, h.EVCIterations, h.ExactDiameter)
	}
	return Config{
		Algorithms:   h.Algorithms,
		Datasets:     h.Datasets,
		Epsilons:     h.Epsilons,
		Queries:      queryIDs(h.Queries),
		Reps:         h.Reps,
		Scale:        h.Scale,
		Seed:         h.Seed,
		Workers:      h.Workers,
		DistanceMode: DistanceMode(h.DistanceMode),
	}, nil
}

// digest is an FNV-64a fingerprint of every field that affects cell
// values or their layout. Workers is excluded — it changes only the
// schedule — so a run checkpointed at -jobs 8 resumes cleanly at
// -jobs 2. Query order IS included: Errors/StdDev slices are positional
// in configuration order, so a reordered query list is a different run.
func (h manifestHeader) digest() string {
	f := fnv.New64a()
	mix := func(format string, args ...any) { fmt.Fprintf(f, format, args...) }
	mix("v%d|algs", h.Version)
	for _, a := range h.Algorithms {
		mix("|%s", a)
	}
	mix("|ds")
	for _, d := range h.Datasets {
		mix("|%s", d)
	}
	mix("|eps")
	for _, e := range h.Epsilons {
		mix("|%g", e)
	}
	mix("|q")
	for _, q := range h.Queries {
		mix("|%d", q)
	}
	mix("|reps%d|scale%g|seed%d", h.Reps, h.Scale, h.Seed)
	mix("|l%d|s%d|i%d|x%t", h.ExactPathLimit, h.PathSamples, h.EVCIterations, h.ExactDiameter)
	if h.DistanceMode != "" {
		mix("|dm%s", h.DistanceMode)
	}
	return fmt.Sprintf("%016x", f.Sum64())
}

func queryInts(qs []QueryID) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = int(q)
	}
	return out
}

func queryIDs(qs []int) []QueryID {
	out := make([]QueryID, len(qs))
	for i, q := range qs {
		out[i] = QueryID(q)
	}
	return out
}

func (c manifestCell) result() CellResult {
	res := CellResult{
		Algorithm:  c.Algorithm,
		Dataset:    c.Dataset,
		Epsilon:    c.Epsilon,
		Queries:    queryIDs(c.Queries),
		Errors:     c.Errors,
		StdDev:     c.StdDev,
		GenSeconds: c.GenSeconds,
		GenBytes:   c.GenBytes,
	}
	if c.Err != "" {
		res.Err = errors.New(c.Err)
	}
	return res
}

func cellRecord(res CellResult) manifestCell {
	c := manifestCell{
		Algorithm:  res.Algorithm,
		Dataset:    res.Dataset,
		Epsilon:    res.Epsilon,
		Queries:    queryInts(res.Queries),
		Errors:     res.Errors,
		StdDev:     res.StdDev,
		GenSeconds: res.GenSeconds,
		GenBytes:   res.GenBytes,
	}
	if res.Err != nil {
		c.Err = res.Err.Error()
	}
	return c
}

// checkpointWriter appends cell records to an open manifest. Append is
// safe for concurrent use by worker goroutines; each record is written
// in a single Write call so a crash can truncate only the final line.
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

func (w *checkpointWriter) append(res CellResult) error {
	line, err := json.Marshal(cellRecord(res))
	if err != nil {
		return err
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(line)
	return err
}

func (w *checkpointWriter) close() error { return w.f.Close() }

// loadManifest parses a manifest, stopping at the first line that is
// incomplete (no trailing newline), does not parse, or holds a cell not
// shaped by the header's queries — a torn tail or a garbled line. It
// returns the header, the completed cells, and the byte offset of the
// valid prefix, to which a resuming writer truncates before appending.
// The newline requirement matters: a torn line can be byte-for-byte
// valid JSON missing only its '\n', and counting it into the prefix
// would glue the next appended record onto the same line, corrupting
// every later resume.
func loadManifest(path string) (manifestHeader, []manifestCell, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return manifestHeader{}, nil, 0, err
	}
	defer f.Close()

	r := bufio.NewReader(f)
	var offset int64
	line, err := r.ReadBytes('\n')
	if err != nil && (err != io.EOF || len(line) == 0) {
		return manifestHeader{}, nil, 0, fmt.Errorf("core: checkpoint %s: empty manifest", path)
	}
	var h manifestHeader
	if jerr := json.Unmarshal(line, &h); jerr != nil || h.Version == 0 {
		return manifestHeader{}, nil, 0, fmt.Errorf("core: checkpoint %s: not a pgb run manifest", path)
	}
	if h.Version != checkpointVersion {
		return manifestHeader{}, nil, 0, fmt.Errorf("core: checkpoint %s: manifest version %d, this build reads %d", path, h.Version, checkpointVersion)
	}
	if line[len(line)-1] != '\n' {
		return manifestHeader{}, nil, 0, fmt.Errorf("core: checkpoint %s: truncated manifest header; delete the file to start over", path)
	}
	offset += int64(len(line))

	var cells []manifestCell
	for {
		line, _ = r.ReadBytes('\n')
		if len(line) == 0 || line[len(line)-1] != '\n' {
			break // EOF, or a torn tail — everything before it stands
		}
		var c manifestCell
		if jerr := json.Unmarshal(line, &c); jerr != nil || c.Algorithm == "" ||
			!slices.Equal(c.Queries, h.Queries) || len(c.Errors) != len(h.Queries) || len(c.StdDev) != len(h.Queries) {
			break // garbled line — stop at the valid prefix
		}
		cells = append(cells, c)
		offset += int64(len(line))
	}
	return h, cells, offset, nil
}

// openCheckpoint prepares cfg's manifest for a run: a missing file
// starts a fresh manifest, an existing one is verified against the
// configuration digest and its completed cells are returned for the
// scheduler to skip. cfg must already have defaults applied.
func openCheckpoint(cfg Config) (map[cellKey]CellResult, *checkpointWriter, error) {
	path := cfg.CheckpointPath
	want := headerFor(cfg)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, nil, err
		}
		line, err := json.Marshal(want)
		if err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		return nil, &checkpointWriter{f: f}, nil
	}

	h, cells, offset, err := loadManifest(path)
	if err != nil {
		return nil, nil, err
	}
	if h.Digest != want.Digest {
		return nil, nil, fmt.Errorf("core: checkpoint %s was written by a different run configuration (digest %s, this run %s); delete it or change -checkpoint", path, h.Digest, want.Digest)
	}
	done := make(map[cellKey]CellResult, len(cells))
	for _, c := range cells {
		done[cellKey{alg: c.Algorithm, ds: c.Dataset, eps: c.Epsilon}] = c.result()
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(offset); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	return done, &checkpointWriter{f: f}, nil
}

// CheckpointConfig reads the configuration a run manifest was written
// under, with CheckpointPath set back to path, so a caller can attach a
// Progress callback or a cancellation Context (or override Workers)
// before calling Run. The returned config produces the digest of the
// stored one.
func CheckpointConfig(path string) (Config, error) {
	h, _, _, err := loadManifest(path)
	if err != nil {
		return Config{}, err
	}
	cfg, err := h.config()
	if err != nil {
		return Config{}, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	cfg.CheckpointPath = path
	return cfg, nil
}

// Resume continues an interrupted checkpointed run: the configuration is
// restored from the manifest at path, completed cells are reloaded, and
// only the remaining cells are computed. A manifest whose grid is fully
// complete recomputes nothing — dataset graphs are regenerated only for
// their summary statistics.
func Resume(path string) (*Results, error) {
	cfg, err := CheckpointConfig(path)
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}

// ConfigDigest returns the run-configuration fingerprint a manifest for
// cfg would carry: an FNV-64a hash over every normalized field that
// affects cell values or their layout (grid axes, query order, reps,
// scale, seed, profile tuning). Workers, Progress, Context, and
// CheckpointPath are excluded — they change the schedule, never the
// values — so the digest content-addresses the run's *results*: two
// configs with equal digests produce identical grids.
func ConfigDigest(cfg Config) string {
	return headerFor(cfg.withDefaults()).Digest
}
