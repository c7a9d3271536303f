// Package server is the benchmark-as-a-service layer of PGB-Go: a
// stdlib-only JSON HTTP API over the paper's 4-tuple (M, G, P, U). It
// exposes the mechanisms, datasets, budgets, and queries as synchronous
// endpoints (generate one synthetic graph, compare two graphs) and grid
// runs as asynchronous jobs — submitted, polled, observed over SSE,
// cancelled, and recovered after a restart from their checkpoint
// manifests. Results are content-addressed by request digest, so
// identical submissions are served from cache without recomputation.
// See DESIGN.md §9 and the README "Serving PGB" section.
//
//	GET    /healthz                 liveness + counters
//	GET    /version                 build identification
//	GET    /v1/meta                 algorithms/datasets/epsilons/queries
//	POST   /v1/generate             one synthetic graph, synchronous
//	POST   /v1/compare              query-error report, synchronous, cached
//	POST   /v1/runs                 submit a grid run (async job)
//	GET    /v1/runs                 list jobs
//	GET    /v1/runs/{id}            poll job state/progress
//	GET    /v1/runs/{id}/events     SSE per-cell progress stream
//	DELETE /v1/runs/{id}            cancel (stops between cells)
//	GET    /v1/runs/{id}/result     finished run as JSON
//	GET    /v1/runs/{id}/report     finished run as the HTML report
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/dp"
	"pgb/internal/graph"
	"pgb/internal/lru"
)

// maxBodyBytes bounds request bodies; the dominant payload is an
// uploaded graph (~12 bytes per edge on the wire), so 64 MiB admits
// multi-million-edge graphs while keeping a misbehaving client cheap.
const maxBodyBytes = 64 << 20

// Options configures a Server.
type Options struct {
	// DataDir holds one checkpoint manifest per run job; New adopts
	// every manifest already present (crash recovery). Default
	// "pgb-serve-data".
	DataDir string
	// Workers sizes the async job worker pool — how many grid runs
	// execute concurrently. Default 1: on the reference 1-CPU container
	// one run at a time is the honest capacity.
	Workers int
	// WorkersPerRun is the Config.Workers each executed run gets (grid
	// cells × kernel helpers, one shared budget). Default 1.
	WorkersPerRun int
	// CacheEntries bounds the content-addressed result cache, and
	// separately the compare request memo that maps a body's digest to
	// its result key. Default 128.
	CacheEntries int
	// Store resolves dataset references (graphRef and grid-run datasets)
	// before generation is attempted: refs previously ingested with
	// `pgb ingest` load from their CSR snapshots instead of being
	// regenerated. Nil opens a SnapshotStore under DataDir/snapshots —
	// pointing -data-dir at an ingest target makes the snapshots
	// available with no extra wiring. The server owns (and closes) the
	// store only when it opened it here.
	Store graph.Store
	// Logf receives operational log lines; nil discards them.
	Logf func(string, ...any)
}

func (o Options) withDefaults() Options {
	if o.DataDir == "" {
		o.DataDir = "pgb-serve-data"
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.WorkersPerRun <= 0 {
		o.WorkersPerRun = 1
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 128
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the HTTP service. Create with New, mount via Handler, stop
// with Close.
type Server struct {
	opts Options
	mux  *http.ServeMux
	// cache maps request digests (core.ConfigDigest for runs, a
	// fingerprint tuple for compares) to results (DESIGN.md §9.3).
	cache *lru.Cache[string, any]
	// bodies maps the SHA-256 of a compare body that succeeded to its
	// result key in cache, so a byte-identical repeat is answered
	// before it is decoded.
	bodies *lru.Cache[[sha256.Size]byte, string]
	jobs   *jobManager
	// sem bounds concurrent synchronous computations (generate/compare)
	// so request handlers cannot oversubscribe the box under the job
	// pool.
	sem      chan struct{}
	compares atomic.Int64 // compare computations actually executed (cache misses)
	store    graph.Store
	ownStore *graph.SnapshotStore // non-nil when New opened the store itself
	dsCache  *datasetCache
}

// New builds a Server: the data directory is created if missing and
// every run manifest found in it is adopted and resumed (unfinished
// cells only — completed manifests restore without recomputation).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		cache:   lru.New[string, any](opts.CacheEntries),
		bodies:  lru.New[[sha256.Size]byte, string](opts.CacheEntries),
		sem:     make(chan struct{}, opts.Workers),
		store:   opts.Store,
		dsCache: newDatasetCache(),
	}
	if s.store == nil {
		st, err := graph.OpenSnapshotStore(filepath.Join(opts.DataDir, "snapshots"))
		if err != nil {
			return nil, fmt.Errorf("server: opening snapshot store: %w", err)
		}
		s.store = st
		s.ownStore = st
	}
	s.jobs = newJobManager(opts.DataDir, opts.Workers, opts.WorkersPerRun, s.store, s.cache, opts.Logf)
	s.routes()
	s.jobs.recover()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels running jobs (their finished cells are already durable
// in their manifests) and stops the worker pool. A snapshot store the
// server opened itself is closed too — graphs it served must not be
// used afterwards (they may view unmapped memory).
func (s *Server) Close() {
	s.jobs.close()
	if s.ownStore != nil {
		if err := s.ownStore.Close(); err != nil {
			s.opts.Logf("closing snapshot store: %v", err)
		}
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.HandleFunc("GET /v1/meta", s.handleMeta)
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunStatus)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/result", s.handleRunResult)
	s.mux.HandleFunc("GET /v1/runs/{id}/report", s.handleRunReport)
}

// ---- error and body plumbing ------------------------------------------

// apiError is the structured error body: {"error":{"code":...,"message":...}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already committed; nothing to recover
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]apiError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// decodeBody strictly decodes the JSON request body into v: unknown
// fields, trailing garbage, and oversize bodies are errors — a malformed
// submission must fail loudly, not run a subtly different benchmark. It
// streams, so its buffer grows only with the bytes that arrive.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// bodyPresizeCap bounds readBody's Content-Length presizing: a client
// that announces a large body and stalls holds this much, not the
// announced size.
const bodyPresizeCap = 1 << 20

// readBody reads the whole request body. A body over maxBodyBytes is an
// *http.MaxBytesError. The buffer is sized from Content-Length, up to
// bodyPresizeCap, so a typical graph payload is read without regrowing
// it. Only handleCompare calls it, under its slot.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants MinRead bytes free before it sees EOF.
		buf.Grow(int(min(n, bodyPresizeCap)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf.Bytes(), err
}

// decodeJSON is decodeBody's strict decode of the JSON object rd holds.
func decodeJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// More() reports false before a stray ']' or '}', so only a clean
	// end of input counts as no trailing data.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("request body has trailing data after the JSON object")
	}
	return nil
}

// writeBodyError answers a decodeBody failure: 413 too_large when the
// body exceeded maxBodyBytes, 400 bad_request otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, "bad_request"
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status, code = http.StatusRequestEntityTooLarge, "too_large"
	}
	writeError(w, status, code, "decoding request body: %v", err)
}

// newSeededRNG is the service's per-request generator: one private
// rand.Rand per call, seeded exactly like pgb.Generate
// (rand.NewSource(seed)), so concurrent requests never share RNG state
// and a request's result is a pure function of its payload.
func newSeededRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// acquire takes a synchronous-computation slot, honouring client
// disconnect while waiting; returns false if the client went away.
func (s *Server) acquire(r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) release() { <-s.sem }

// ---- graph references -------------------------------------------------

// graphRef names a graph in a request: either an inline wire-format
// graph or a benchmark dataset reference (name, scale, seed) that the
// server loads deterministically.
type graphRef struct {
	Graph *graph.Graph `json:"graph,omitempty"`
	// Dataset/Scale/Seed select a built-in benchmark dataset instead.
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"` // default 0.1, the CLI default
	Seed    int64   `json:"seed,omitempty"`  // default 42
}

// resolveRef materialises a graph reference: inline graphs pass
// through, dataset references resolve through the server's store first
// (ingested snapshots) and deterministic generation on a store miss,
// memoised in the fingerprint-keyed dataset cache either way.
func (s *Server) resolveRef(ref *graphRef) (*graph.Graph, error) {
	switch {
	case ref == nil:
		return nil, errors.New("missing graph reference")
	case ref.Graph != nil && ref.Dataset != "":
		return nil, errors.New(`a graph reference takes "graph" or "dataset", not both`)
	case ref.Graph != nil:
		return ref.Graph, nil
	case ref.Dataset != "":
		spec, err := datasets.ByName(ref.Dataset)
		if err != nil {
			return nil, err
		}
		scale := ref.Scale
		if scale == 0 {
			scale = 0.1
		}
		if !(scale > 0 && scale <= 1) {
			return nil, fmt.Errorf("dataset scale %g outside (0, 1]", scale)
		}
		seed := ref.Seed
		if seed == 0 {
			seed = 42
		}
		return s.dsCache.load(s.store, spec, scale, seed)
	default:
		return nil, errors.New(`a graph reference needs "graph" or "dataset"`)
	}
}

// datasetCache memoises dataset resolutions: loading is deterministic
// in (name, scale, seed), and regenerating a dataset per request was
// the dominant allocation source of the compare path (>90% of its
// allocs). Graphs are keyed by fingerprint — the content address —
// with a reference→fingerprint memo in front, so a graph reaches
// memory once no matter how it arrives: a ref resolved from a snapshot
// and the same ref regenerated in RAM share one entry, as do distinct
// refs that happen to denote an identical graph. Both memos are LRUs of
// 16 entries, so neither grows with the refs clients name. The cache is
// per-Server (not global): snapshot-resolved graphs may view mmap'd
// memory whose lifetime is the server's own store, so cache and store
// retire together at Close.
type datasetCache struct {
	refs   *lru.Cache[graph.Ref, uint64]
	graphs *lru.Cache[uint64, *graph.Graph]
}

func newDatasetCache() *datasetCache {
	return &datasetCache{refs: lru.New[graph.Ref, uint64](16), graphs: lru.New[uint64, *graph.Graph](16)}
}

func (c *datasetCache) load(st graph.Store, spec datasets.Spec, scale float64, seed int64) (*graph.Graph, error) {
	ref := datasets.RefFor(spec.Name, scale, seed)
	if fp, ok := c.refs.Get(ref); ok {
		if g, ok := c.graphs.Get(fp); ok {
			return g, nil
		}
	}
	g, _, err := datasets.LoadVia(st, spec, scale, seed)
	if err != nil {
		return nil, err
	}
	fp := g.Fingerprint()
	c.refs.Add(ref, fp)
	return c.graphs.Add(fp, g), nil
}

// stats counts every load once: a hit when both memos answered, a miss
// when either did not.
func (c *datasetCache) stats() lru.Stats {
	r, g := c.refs.Stats(), c.graphs.Stats()
	return lru.Stats{Hits: g.Hits, Misses: r.Misses + g.Misses, Entries: g.Entries}
}

// ---- meta / health / version ------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":            "ok",
		"jobs":              s.jobs.count(),
		"runs_executed":     s.jobs.started.Load(),
		"compares_executed": s.compares.Load(),
		"cache_entries":     s.cache.Len(),
		"profile_cache":     core.ProfileCacheStats(),
		"result_cache":      s.cache.Stats(),
		"request_memo":      s.bodies.Stats(),
		"dataset_cache":     s.dsCache.stats(),
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Version())
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	qs := core.RegisteredQueries()
	symbols := make([]string, len(qs))
	for i, q := range qs {
		symbols[i] = q.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"algorithms": core.AlgorithmNames(),
		"datasets":   datasets.Names(),
		"epsilons":   core.Epsilons(),
		"queries":    symbols,
	})
}

// ---- synchronous endpoints --------------------------------------------

// generateRequest asks for one synthetic graph. Seeding contract: the
// run is deterministic in (algorithm, source graph, eps, seed) — the
// handler constructs a private RNG per request, exactly like
// pgb.Generate, so concurrent requests never share generator state.
type generateRequest struct {
	Algorithm string   `json:"algorithm"`
	Eps       float64  `json:"eps"`
	Seed      int64    `json:"seed"`
	Source    graphRef `json:"source"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	// The slot is taken before the body is even decoded: an inline graph
	// payload builds its CSR (transpose/dedup over up to ~8M edges) inside
	// UnmarshalJSON, which is client-controlled CPU work that must count
	// against the concurrency bound like everything downstream of it.
	if !s.acquire(r) {
		return
	}
	defer s.release()
	var req generateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	alg, err := core.NewAlgorithm(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown_algorithm", "%v", err)
		return
	}
	if err := dp.CheckEpsilon(req.Eps); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	g, err := s.resolveRef(&req.Source)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "source: %v", err)
		return
	}
	// Same execution as pgb.Generate: the heavy generators shard their
	// deterministic passes at GOMAXPROCS; the result is bit-identical to
	// the serial path (DESIGN.md §10), so the response — fingerprint
	// included — never depends on the schedule.
	syn, err := alg.Generate(g, req.Eps, newSeededRNG(req.Seed), algo.Params{})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "generation_failed", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"algorithm":   req.Algorithm,
		"eps":         req.Eps,
		"seed":        req.Seed,
		"nodes":       syn.N(),
		"edges":       syn.M(),
		"fingerprint": fmt.Sprintf("%016x", syn.Fingerprint()),
		"graph":       syn,
	})
}

// compareRequest asks for the paper's query-error report of a synthetic
// graph against a baseline.
type compareRequest struct {
	Truth     graphRef `json:"truth"`
	Synthetic graphRef `json:"synthetic"`
	Seed      int64    `json:"seed"`
	// Queries restricts the report to these symbols; empty = all.
	Queries []string `json:"queries,omitempty"`
	// DistanceMode selects the Q7–Q9 estimator: "auto" (default),
	// "exact", "sampled", or "anf" (HyperANF, bounded error).
	DistanceMode string `json:"distance_mode,omitempty"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	// As in handleGenerate, the slot covers body decode (inline graphs
	// build their CSR inside UnmarshalJSON), graph resolution (dataset
	// references generate full graphs — and a cache hit on a body not
	// seen before must resolve both sides to learn its fingerprints,
	// the price of content-addressing by value rather than by request
	// shape), and the profile computation itself. It covers the body
	// read too, so at most one body per slot is held in memory.
	if !s.acquire(r) {
		return
	}
	defer s.release()
	body, err := readBody(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	// A body seen before with a successful answer names its result key
	// directly: the repeat skips decode, resolution and fingerprints.
	// Errors never enter the memo, so a bad body is decoded every time.
	digest := sha256.Sum256(body)
	key, known := s.bodies.Get(digest)
	if known {
		if v, ok := s.cache.Get(key); ok {
			writeJSON(w, http.StatusOK, map[string]any{"rows": v, "cached": true})
			return
		}
	}
	var req compareRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		writeBodyError(w, err)
		return
	}
	queries := core.AllQueries()
	if len(req.Queries) > 0 {
		var err error
		queries, err = core.ParseQueries(req.Queries)
		if err != nil {
			writeError(w, http.StatusBadRequest, "unknown_query", "%v", err)
			return
		}
	}
	mode, err := core.ParseDistanceMode(req.DistanceMode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	truth, err := s.resolveRef(&req.Truth)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "truth: %v", err)
		return
	}
	syn, err := s.resolveRef(&req.Synthetic)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "synthetic: %v", err)
		return
	}
	if err := core.CheckNodeCounts(truth.N(), syn.N(), queries); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}

	// Content address: both graph fingerprints, the seed, the distance
	// mode, and the query list (order included — it is the row order of
	// the response). For query sets whose profiles never consume RNG the
	// seed is normalised to zero: the rows are seed-invariant, so
	// cosmetically different seeds share one cache entry.
	keySeed := req.Seed
	if core.ProfileSeedInvariant(queries) {
		keySeed = 0
	}
	key = fmt.Sprintf("cmp|%016x|%016x|%d|%s|%v", truth.Fingerprint(), syn.Fingerprint(), keySeed, mode, queries)
	// A known body whose result was evicted has just missed under this
	// very key; asking again would count a second miss.
	if !known {
		if v, ok := s.cache.Get(key); ok {
			s.bodies.Add(digest, key)
			writeJSON(w, http.StatusOK, map[string]any{"rows": v, "cached": true})
			return
		}
	}
	s.compares.Add(1)

	rows := core.CompareGraphs(truth, syn, req.Seed, core.ProfileOptions{Queries: queries, DistanceMode: mode})
	s.cache.Add(key, rows)
	s.bodies.Add(digest, key)
	writeJSON(w, http.StatusOK, map[string]any{"rows": rows, "cached": false})
}

// ---- async run jobs ---------------------------------------------------

// runRequest submits a benchmark grid. Zero-value fields take the
// library defaults (the paper's grid axes, 10 repetitions, scale 1,
// seed 42) — note scale: an empty submission runs the full-size paper
// benchmark by design.
type runRequest struct {
	Algorithms []string  `json:"algorithms,omitempty"`
	Datasets   []string  `json:"datasets,omitempty"`
	Epsilons   []float64 `json:"epsilons,omitempty"`
	Queries    []string  `json:"queries,omitempty"`
	Reps       int       `json:"reps,omitempty"`
	Scale      float64   `json:"scale,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
	// DistanceMode selects the Q7–Q9 estimator for every cell profile:
	// "auto" (default), "exact", "sampled", or "anf".
	DistanceMode string `json:"distance_mode,omitempty"`
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	for _, name := range req.Algorithms {
		if _, err := core.NewAlgorithm(name); err != nil {
			writeError(w, http.StatusBadRequest, "unknown_algorithm", "%v", err)
			return
		}
	}
	for _, name := range req.Datasets {
		if _, err := datasets.ByName(name); err != nil {
			writeError(w, http.StatusBadRequest, "unknown_dataset", "%v", err)
			return
		}
	}
	for _, e := range req.Epsilons {
		if err := dp.CheckEpsilon(e); err != nil {
			writeError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
			return
		}
	}
	if !(req.Scale >= 0 && req.Scale <= 1) {
		writeError(w, http.StatusBadRequest, "invalid_argument", "scale %g outside (0, 1]", req.Scale)
		return
	}
	mode, err := core.ParseDistanceMode(req.DistanceMode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
		return
	}
	cfg := core.Config{
		Algorithms:   req.Algorithms,
		Datasets:     req.Datasets,
		Epsilons:     req.Epsilons,
		Reps:         req.Reps,
		Scale:        req.Scale,
		Seed:         req.Seed,
		DistanceMode: mode,
	}
	if len(req.Queries) > 0 {
		qs, err := core.ParseQueries(req.Queries)
		if err != nil {
			writeError(w, http.StatusBadRequest, "unknown_query", "%v", err)
			return
		}
		cfg.Queries = qs
	}
	j, absorbed, err := s.jobs.submit(cfg.Normalized())
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "unavailable", "%v", err)
		return
	}
	status := http.StatusAccepted
	if absorbed {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/runs/"+j.id)
	writeJSON(w, status, j.status())
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.jobs.list()})
}

// lookupJob resolves {id} or writes the 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no run %q", id)
	}
	return j, ok
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if err := s.jobs.cancelJob(j); err != nil {
		writeError(w, http.StatusConflict, "conflict", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleRunEvents streams the job's progress as Server-Sent Events:
// every line logged so far is replayed, later lines follow live, and a
// terminal "state" event closes the stream. Reconnecting clients simply
// get the full replay again — the stream is idempotent.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "unsupported", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, ch, done := j.subscribe()
	defer j.unsubscribe(ch)
	emit := func(event, data string) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}
	for _, line := range replay {
		emit("progress", line)
	}
	fl.Flush()
	for {
		select {
		case line := <-ch:
			emit("progress", line)
			fl.Flush()
		case <-done:
			// Drain lines that raced the terminal transition, then
			// report the final state.
			for {
				select {
				case line := <-ch:
					emit("progress", line)
				default:
					emit("state", string(j.status().State))
					fl.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// resultsOf fetches a job's results or writes the blocking status: 404
// unknown, 409 not finished, 410 failed/cancelled.
func (s *Server) resultsOf(w http.ResponseWriter, r *http.Request) (*core.Results, bool) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	state, res, errMsg := j.state, j.results, j.errMsg
	j.mu.Unlock()
	switch {
	case state == StateDone && res != nil:
		return res, true
	case state == StateFailed:
		writeError(w, http.StatusGone, "failed", "run failed: %s", errMsg)
	case state == StateCancelled:
		writeError(w, http.StatusGone, "cancelled", "run was cancelled; resubmit to resume it")
	default:
		writeError(w, http.StatusConflict, "not_ready", "run is %s; poll /v1/runs/{id} until done", state)
	}
	return nil, false
}

func (s *Server) handleRunResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.resultsOf(w, r)
	if !ok {
		return
	}
	type cellJSON struct {
		Algorithm  string    `json:"algorithm"`
		Dataset    string    `json:"dataset"`
		Epsilon    float64   `json:"epsilon"`
		Queries    []string  `json:"queries"`
		Errors     []float64 `json:"errors"`
		StdDev     []float64 `json:"stddev"`
		GenSeconds float64   `json:"gen_seconds"`
		GenBytes   float64   `json:"gen_bytes"`
		Err        string    `json:"err,omitempty"`
	}
	cells := make([]cellJSON, 0, len(res.Cells))
	for _, c := range res.Cells {
		cj := cellJSON{
			Algorithm:  c.Algorithm,
			Dataset:    c.Dataset,
			Epsilon:    c.Epsilon,
			Errors:     c.Errors,
			StdDev:     c.StdDev,
			GenSeconds: c.GenSeconds,
			GenBytes:   c.GenBytes,
		}
		for _, q := range c.Queries {
			cj.Queries = append(cj.Queries, q.String())
		}
		if c.Err != nil {
			cj.Err = c.Err.Error()
		}
		cells = append(cells, cj)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"algorithms": res.Config.Algorithms,
		"datasets":   res.Config.Datasets,
		"epsilons":   res.Config.Epsilons,
		"reps":       res.Config.Reps,
		"scale":      res.Config.Scale,
		"seed":       res.Config.Seed,
		"cells":      cells,
	})
}

func (s *Server) handleRunReport(w http.ResponseWriter, r *http.Request) {
	res, ok := s.resultsOf(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := core.WriteHTMLReport(w, res); err != nil {
		s.opts.Logf("report %s: %v", r.PathValue("id"), err)
	}
}
