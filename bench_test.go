// Benchmarks regenerating the measurements behind each table and figure
// of the paper. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping (see DESIGN.md §6):
//
//	BenchmarkTable7Grid        — Table VII / Table XII grid cells
//	BenchmarkAlgorithms/*      — Table IX (time) and Table X (-benchmem)
//	BenchmarkFig2Cells/*       — Fig. 2 error series cells
//	BenchmarkQueries/*         — query-evaluation cost (harness overhead)
//	BenchmarkComputeProfile/*  — serial vs parallel profile on a 6k-node graph
//	BenchmarkRunGrid/*         — whole-grid serial vs parallel scheduling
//	BenchmarkTriangles/*       — triangle kernel, serial vs sharded, two scales
//	BenchmarkBFS/*             — BFS sweep kernel, serial vs sharded, two scales
//	BenchmarkANF/*             — HyperANF distance estimator (-distance anf)
//	BenchmarkLouvain/*         — Louvain (Q12, PrivGraph) on the eight datasets
//	BenchmarkTmFFilterAblation — TmF high-pass filter vs naive matrix
//	BenchmarkDPdKSensitivity   — smooth vs global sensitivity (DP-dK)
//	BenchmarkDGGConstruction   — BTER vs Chung-Lu construction (DGG)
//	BenchmarkPrivGraphSplit    — PrivGraph budget-split ablation
//	BenchmarkPrivHRGMCMC       — PrivHRG MCMC-length ablation
//	BenchmarkDatasets          — dataset stand-in generation cost
//	BenchmarkServerCompare     — one end-to-end pgb serve /v1/compare request
//	BenchmarkCompareAlloc      — /v1/compare allocation profile (no HTTP client)
//
// Benchmarks use scaled-down datasets (bench scale 0.05–0.1) so the suite
// completes in minutes; the cmd/pgb harness runs the same code at any
// scale.
package pgb_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pgb"
	"pgb/internal/algo"
	"pgb/internal/algo/dgg"
	"pgb/internal/algo/dpdk"
	"pgb/internal/algo/privgraph"
	"pgb/internal/algo/privhrg"
	"pgb/internal/algo/tmf"
	"pgb/internal/community"
	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/server"
	"pgb/internal/stats"
)

const benchScale = 0.05

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	spec, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec.Load(benchScale, 42)
}

// BenchmarkAlgorithms measures one generation per (algorithm, dataset)
// pair at ε = 1 — the Table IX / Table X measurement unit.
func BenchmarkAlgorithms(b *testing.B) {
	for _, algName := range append(core.AlgorithmNames(), "DER") {
		for _, dsName := range []string{"Minnesota", "Facebook", "Gnutella", "ER"} {
			b.Run(fmt.Sprintf("%s/%s", algName, dsName), func(b *testing.B) {
				g := benchGraph(b, dsName)
				alg, err := core.NewAlgorithm(algName)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rng := rand.New(rand.NewSource(int64(i)))
					if _, err := alg.Generate(g, 1, rng, algo.Params{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGenerate measures one generation per parallelized algorithm
// at ε = 1 on a 4k-node BA graph — the per-algorithm unit the CI gate
// pins (README "Benchmarking in CI") so generator regressions trip it.
// Generation runs at the default worker count (Params{}), exactly as
// pgb.Generate executes it; outputs are bit-identical at any parallelism
// (DESIGN.md §10), so ns/op and allocs/op are the only things that vary.
func BenchmarkGenerate(b *testing.B) {
	g := gen.BarabasiAlbert(4000, 8, rand.New(rand.NewSource(21)))
	for _, algName := range []string{"LDPGen", "PrivGraph", "PrivHRG", "DP-dK", "TmF"} {
		b.Run(algName, func(b *testing.B) {
			alg, err := core.NewAlgorithm(algName)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := alg.Generate(g, 1, rng, algo.Params{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7Grid runs one full benchmark cell (generation + all
// fifteen queries) — the unit of Tables VII and XII.
func BenchmarkTable7Grid(b *testing.B) {
	g := benchGraph(b, "Facebook")
	rng := rand.New(rand.NewSource(1))
	truth := core.ComputeProfileSeeded(g, core.ProfileOptions{}, rng.Int63())
	alg, err := core.NewAlgorithm("PrivGraph")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		syn, err := alg.Generate(g, 1, r, algo.Params{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		prof := core.ComputeProfileSeeded(syn, core.ProfileOptions{}, r.Int63())
		for _, q := range core.AllQueries() {
			core.Score(q, truth, prof)
		}
	}
}

// BenchmarkFig2Cells measures the five Fig. 2 queries on the four Fig. 2
// graphs (per-cell cost of the figure's series).
func BenchmarkFig2Cells(b *testing.B) {
	for _, dsName := range core.Fig2Datasets() {
		b.Run(dsName, func(b *testing.B) {
			g := benchGraph(b, dsName)
			rng := rand.New(rand.NewSource(2))
			truth := core.ComputeProfileSeeded(g, core.ProfileOptions{}, rng.Int63())
			alg, _ := core.NewAlgorithm("TmF")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				syn, err := alg.Generate(g, 1, r, algo.Params{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				prof := core.ComputeProfileSeeded(syn, core.ProfileOptions{}, r.Int63())
				for _, q := range core.Fig2Queries() {
					core.Score(q, truth, prof)
				}
			}
		})
	}
}

// BenchmarkComputeProfile measures the fifteen-query profile on a ≥5k-node
// graph, serial versus the parallel worker pool — the headline hot-path
// speedup of the registry-driven query engine (profile computation
// dominates cell latency on large graphs). Results are identical in both
// modes; only the schedule differs.
func BenchmarkComputeProfile(b *testing.B) {
	g := gen.BarabasiAlbert(6000, 8, rand.New(rand.NewSource(9)))
	if g.N() < 5000 {
		b.Fatalf("benchmark graph too small: n=%d", g.N())
	}
	for _, mode := range []struct {
		name string
		opt  core.ProfileOptions
	}{
		{"serial", core.ProfileOptions{Workers: 1}},
		{"parallel", core.ProfileOptions{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.ComputeProfileSeeded(g, mode.opt, int64(i))
			}
		})
	}
}

// BenchmarkRunGrid measures a whole benchmark grid — 2 algorithms × 3
// datasets × 3 budgets — executed serially versus on the scheduler's
// worker pool, the grid-level speedup on top of the per-profile one.
// Cell values are identical in both modes; only the schedule differs.
func BenchmarkRunGrid(b *testing.B) {
	grid := func(workers int) pgb.BenchmarkConfig {
		return pgb.BenchmarkConfig{
			Algorithms: []string{"TmF", "DGG"},
			Datasets:   []string{"Minnesota", "Facebook", "ER"},
			Epsilons:   []float64{0.5, 1, 5},
			Reps:       1,
			Scale:      benchScale,
			Seed:       23,
			Workers:    workers,
		}
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pgb.RunBenchmark(grid(mode.workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTriangles measures the Q3 triangle kernel on the CSR layout,
// serial versus node-range-sharded across all cores, at two graph scales.
// Counts are bit-identical in every mode (DESIGN.md §2).
func BenchmarkTriangles(b *testing.B) {
	for _, size := range []struct {
		name string
		n, k int
	}{{"small", 3000, 6}, {"large", 12000, 8}} {
		g := gen.BarabasiAlbert(size.n, size.k, rand.New(rand.NewSource(11)))
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("%s/%s", mode.name, size.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stats.TrianglesParallel(g, mode.workers, nil)
				}
			})
		}
	}
}

// BenchmarkBFS measures the Q7-Q9 BFS sweep on the CSR layout, serial
// versus source-sharded: the exact all-pairs sweep at small scale, the
// 128-source sampled sweep at large scale. Distances are bit-identical
// in every mode (DESIGN.md §2). The parallel variant pins an explicit
// worker count — workers=0 resolves to GOMAXPROCS, which is 1 on
// single-vCPU CI runners and silently turned the serial/parallel
// comparison into two identical serial runs.
func BenchmarkBFS(b *testing.B) {
	small := gen.BarabasiAlbert(2000, 6, rand.New(rand.NewSource(12)))
	large := gen.BarabasiAlbert(12000, 8, rand.New(rand.NewSource(13)))
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 4}} {
		b.Run(fmt.Sprintf("%s/exact", mode.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats.ExactDistancesParallel(small, mode.workers, nil)
			}
		})
		b.Run(fmt.Sprintf("%s/sampled", mode.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				stats.SampledDistancesParallel(large, 128, rng, mode.workers, nil)
			}
		})
	}
}

// BenchmarkANF measures the HyperANF distance estimator on the same
// large graph BenchmarkBFS samples — the sublinear alternative to the
// BFS sweep for the Q7-Q9 distance group (-distance anf). Part of the
// CI pinned subset (README "Benchmarking in CI"); results are
// bit-identical at every worker count, so only ns/op and allocs/op can
// move.
func BenchmarkANF(b *testing.B) {
	g := gen.BarabasiAlbert(12000, 8, rand.New(rand.NewSource(13)))
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				stats.ANFDistancesParallel(g, rng, mode.workers, nil)
			}
		})
	}
}

// BenchmarkLouvain measures one serial Louvain call (the CD query and
// PrivGraph's community phase) on each of the eight datasets at scale
// 0.1, plus an ER copy with 10% of its edges rewired — the shape of the
// synthetic side of a served compare, which takes Louvain more passes
// than the clean stand-in.
func BenchmarkLouvain(b *testing.B) {
	graphs := map[string]*graph.Graph{}
	names := datasets.Names()
	for _, name := range names {
		spec, err := datasets.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		graphs[name] = spec.Load(0.1, 42)
	}
	graphs["ER-perturbed"] = rewire(graphs["ER"], 0.1, rand.New(rand.NewSource(5)))
	for _, name := range append(names, "ER-perturbed") {
		g := graphs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				community.Louvain(g, rand.New(rand.NewSource(int64(i))))
			}
		})
	}
}

// rewire returns g with a frac share of its edges, drawn by rng,
// replaced by uniformly random new ones.
func rewire(g *graph.Graph, frac float64, rng *rand.Rand) *graph.Graph {
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	k := int(frac * float64(len(edges)))
	set := graph.NewEdgeSet(g.N(), len(edges))
	for _, e := range edges[k:] {
		set.Add(e.U, e.V)
	}
	for set.M() < len(edges) {
		set.Add(int32(rng.Intn(g.N())), int32(rng.Intn(g.N())))
	}
	return set.Build()
}

// BenchmarkQueries isolates the cost of the fifteen-query profile, the
// harness overhead shared by every cell.
func BenchmarkQueries(b *testing.B) {
	for _, dsName := range []string{"Minnesota", "Facebook", "ER"} {
		b.Run(dsName, func(b *testing.B) {
			g := benchGraph(b, dsName)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				core.ComputeProfileSeeded(g, core.ProfileOptions{}, rng.Int63())
			}
		})
	}
}

// BenchmarkTmFFilterAblation compares TmF's linear-cost high-pass filter
// against the naive O(n²) full-matrix perturbation it replaces (DESIGN.md
// §7; the paper's "linear cost" contribution).
func BenchmarkTmFFilterAblation(b *testing.B) {
	g := benchGraph(b, "Facebook")
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"filter", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			alg := tmf.New(tmf.Options{NaiveFullMatrix: mode.naive})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := alg.Generate(g, 1, rng, algo.Params{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPdKSensitivity compares smooth-sensitivity DP-2K against the
// global-sensitivity ablation.
func BenchmarkDPdKSensitivity(b *testing.B) {
	g := benchGraph(b, "Facebook")
	for _, mode := range []struct {
		name   string
		global bool
	}{{"smooth", false}, {"global", true}} {
		b.Run(mode.name, func(b *testing.B) {
			alg := dpdk.New(dpdk.Options{GlobalSensitivity: mode.global})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := alg.Generate(g, 1, rng, algo.Params{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDGGConstruction compares DGG's BTER construction against the
// plain Chung-Lu ablation.
func BenchmarkDGGConstruction(b *testing.B) {
	g := benchGraph(b, "Facebook")
	for _, mode := range []struct {
		name    string
		chunglu bool
	}{{"bter", false}, {"chunglu", true}} {
		b.Run(mode.name, func(b *testing.B) {
			alg := dgg.New(dgg.Options{UseChungLu: mode.chunglu})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := alg.Generate(g, 1, rng, algo.Params{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrivGraphSplit sweeps PrivGraph's ε1:ε2:ε3 budget split.
func BenchmarkPrivGraphSplit(b *testing.B) {
	g := benchGraph(b, "Facebook")
	splits := map[string][3]float64{
		"equal":          {1, 1, 1},
		"communityHeavy": {2, 1, 1},
		"degreeHeavy":    {1, 2, 1},
	}
	//pgb:deterministic b.Run sub-benchmarks are independent; order does not affect measurements
	for name, split := range splits {
		b.Run(name, func(b *testing.B) {
			alg := privgraph.New(privgraph.Options{Split: split})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := alg.Generate(g, 1, rng, algo.Params{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrivHRGMCMC sweeps the MCMC chain length.
func BenchmarkPrivHRGMCMC(b *testing.B) {
	g := benchGraph(b, "Minnesota")
	for _, steps := range []int{1000, 5000, 20000} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			alg := privhrg.New(privhrg.Options{MCMCSteps: steps})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := alg.Generate(g, 1, rng, algo.Params{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatasets measures stand-in generation (Table VI setup cost).
func BenchmarkDatasets(b *testing.B) {
	for _, name := range pgb.Datasets() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pgb.Load(pgb.Source{Dataset: name, Scale: benchScale, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerCompare measures one end-to-end pgb serve comparison
// request over HTTP. Its queries (|E|, GCC, d_avg, Tri) are all
// seed-free — d_avg is the mean degree, a structure query — so the
// server normalises the cache key's seed to 0 and every iteration after
// the warm-up is a result-cache hit despite its fresh seed: the HTTP
// round trip, JSON graph decode, CSR build, fingerprints, a cache lookup
// and response encoding, with no profile computation. Part of the CI
// pinned subset (README "Benchmarking in CI").
func BenchmarkServerCompare(b *testing.B) {
	srv, err := server.New(server.Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	truth := benchGraph(b, "ER")
	alg, err := core.NewAlgorithm("TmF")
	if err != nil {
		b.Fatal(err)
	}
	syn, err := alg.Generate(truth, 1, rand.New(rand.NewSource(1)), algo.Params{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	synJSON, err := json.Marshal(syn)
	if err != nil {
		b.Fatal(err)
	}

	post := func(seed int) {
		body := fmt.Sprintf(`{"truth":{"dataset":"ER","scale":%g,"seed":42},"synthetic":{"graph":%s},"seed":%d,"queries":["|E|","GCC","d_avg","Tri"]}`,
			benchScale, synJSON, seed)
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("compare status %d: %s", resp.StatusCode, data)
		}
	}
	// One warmup request: the steady-state request cost is the measurement,
	// not the first connection's dial and pool warmup (CI runs -benchtime 1x,
	// where a cold first iteration would dominate allocs/op).
	post(-1)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
}

// BenchmarkCompareAlloc measures the compare handler's allocation
// profile without HTTP-client noise: requests go straight into the
// handler via ServeHTTP. Its queries (|E|, GCC, d_avg) are all
// seed-free — d_avg is the mean degree, not a distance query, so
// distance_mode=anf never runs — and every iteration after the warm-up
// is a result-cache hit despite its fresh seed: decode, CSR build,
// fingerprints and a cache lookup. Gated on allocs/op by benchgate
// -gate-allocs (README "Benchmarking in CI").
func BenchmarkCompareAlloc(b *testing.B) {
	srv, err := server.New(server.Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	truth := benchGraph(b, "ER")
	alg, err := core.NewAlgorithm("TmF")
	if err != nil {
		b.Fatal(err)
	}
	syn, err := alg.Generate(truth, 1, rand.New(rand.NewSource(1)), algo.Params{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	synJSON, err := json.Marshal(syn)
	if err != nil {
		b.Fatal(err)
	}

	serve := func(seed int) {
		body := fmt.Sprintf(`{"truth":{"dataset":"ER","scale":%g,"seed":42},"synthetic":{"graph":%s},"seed":%d,"distance_mode":"anf","queries":["|E|","GCC","d_avg"]}`,
			benchScale, synJSON, seed)
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("compare status %d: %s", w.Code, w.Body.String())
		}
	}
	serve(-1) // warmup: measure steady state, not scratch-pool cold start

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}
