package main

// replay.go re-executes the work of a grid run and of a served
// comparison through each layer's public functions, one span per call,
// so the traced pass can say where an op's time went. It is the only
// file that depends on the module's internal packages beyond the
// snapshot reader: a change to a layer's API is absorbed here. Every
// replay is checked bit-for-bit against the program's own output, so a
// replay that drifted from what the program does fails the run instead
// of attributing time to work the program no longer does.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pgb/internal/algo"
	"pgb/internal/community"
	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/graph"
	"pgb/internal/par"
	"pgb/internal/stats"
)

// Profile defaults, as core.ProfileOptions resolves its zero value.
const (
	exactPathLimit = 2000
	pathSamples    = 64
	evcIterations  = 60
)

// replaySpec is a grid run to replay: one repetition per cell.
type replaySpec struct {
	algs, datasets []string
	eps            []float64
	scale          float64
	seed           int64
	mode           core.DistanceMode
	workers        int
}

// overlapJob is a synthetic graph whose profile is recomputed with the
// profile's own parallel schedule after the op, to set the serial sum of
// its replayed passes against the wall time of the real computation.
type overlapJob struct {
	g        *graph.Graph
	opt      core.ProfileOptions
	seed     int64
	serialMs float64
}

// hashCell mirrors the grid runner's per-cell seed derivation.
func hashCell(alg, ds string, eps float64) int64 {
	h := int64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
	}
	mix(alg)
	mix(ds)
	mix(fmt.Sprintf("%g", eps))
	return h
}

// replayGrid replays core.Run for sp serially: each dataset is resolved
// (through store when non-nil) and summarised and its truth profile
// computed, then every cell generates, profiles pass by pass and scores.
// truthSeen tracks which truth profiles this process has computed, to
// label each as cold or warm. It returns the cells in grid order and one
// overlap job per dataset (its first cell).
func replayGrid(tr *tracer, parent, op int, sp replaySpec, store graph.Store, truthSeen map[string]bool) ([]cellValues, []overlapJob, error) {
	var budget *par.Budget
	if sp.workers > 1 {
		budget = par.NewBudget(sp.workers - 1)
	}
	popt := core.ProfileOptions{Queries: core.AllQueries(), DistanceMode: sp.mode, Workers: sp.workers, Budget: budget}
	graphs := make(map[string]*graph.Graph, len(sp.datasets))
	truths := make(map[string]*core.Profile, len(sp.datasets))
	for _, name := range sp.datasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		id := tr.begin("datasets.load", parent, op)
		g, fromStore, err := datasets.LoadVia(store, spec, sp.scale, sp.seed)
		if fromStore {
			tr.rename(id, "graph.snapshot_open")
		}
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		id = tr.begin("datasets.summarize", parent, op)
		datasets.Summarize(spec, g)
		tr.end(id)
		key := fmt.Sprintf("%s@%g#%d/%s", name, sp.scale, sp.seed, sp.mode)
		label := "core.truth_profile_cold"
		if truthSeen[key] {
			label = "core.truth_profile_warm"
		}
		truthSeen[key] = true
		id = tr.begin(label, parent, op)
		truths[name] = core.ComputeProfileCached(g, popt, sp.seed+1)
		tr.end(id)
		graphs[name] = g
	}

	var cells []cellValues
	var jobs []overlapJob
	for _, alg := range sp.algs {
		for _, ds := range sp.datasets {
			for _, eps := range sp.eps {
				cell, job := replayCell(tr, parent, op, popt, alg, ds, eps, sp.seed, graphs[ds], truths[ds])
				cells = append(cells, cell)
				if alg == sp.algs[0] && eps == sp.eps[0] && job != nil {
					jobs = append(jobs, *job)
				}
			}
		}
	}
	return cells, jobs, nil
}

// replayCell replays one single-repetition grid cell. It returns the
// cell and an overlap job for its synthetic graph (nil when generation
// failed).
func replayCell(tr *tracer, parent, op int, popt core.ProfileOptions, alg, ds string, eps float64, seed int64, g *graph.Graph, truth *core.Profile) (cellValues, *overlapJob) {
	cell := cellValues{Alg: alg, DS: ds, Eps: eps}
	cid := tr.begin("core.cell", parent, op)
	defer tr.end(cid)
	gen, err := core.NewAlgorithm(alg)
	if err != nil {
		cell.Err = err.Error()
		return cell, nil
	}
	repSeed := seed ^ hashCell(alg, ds, eps)
	id := tr.begin("algo.generate."+alg, cid, op)
	_, bytes, syn, err := core.MeasureGenerateWith(gen, g, eps, rand.New(rand.NewSource(repSeed)),
		algo.Params{Workers: popt.Workers, Budget: popt.Budget})
	tr.end(id)
	tr.add("algo.generate_alloc_kb", bytes/1024)
	if err != nil {
		cell.Err = err.Error()
		return cell, nil
	}
	synSeed := core.SubSeed(repSeed, 1)
	prof, serialMs := replayProfile(tr, cid, op, syn, popt, synSeed)
	id = tr.begin("core.score", cid, op)
	for _, q := range popt.Queries {
		v, _ := core.Score(q, truth, prof)
		cell.Errors = append(cell.Errors, v)
	}
	tr.end(id)
	return cell, &overlapJob{g: syn, opt: popt, seed: synSeed, serialMs: serialMs}
}

// replayProfile computes g's profile the way core.ComputeProfileSeeded
// does — the passes the selected queries need, each on the random stream
// core.SubSeed(seed, group) — but one pass at a time inside a
// "core.profile" span, each pass in a span of its own. It returns the
// profile and the summed pass time in milliseconds.
func replayProfile(tr *tracer, parent, op int, g *graph.Graph, opt core.ProfileOptions, seed int64) (*core.Profile, float64) {
	groups := make(map[core.GroupID]bool)
	for _, q := range opt.Queries {
		if s, ok := core.QuerySpecOf(q); ok {
			groups[s.Group] = true
		}
	}
	workers, budget := opt.Workers, opt.Budget
	if workers <= 0 {
		workers = workerProcs
	}
	p := &core.Profile{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pid := tr.begin("core.profile", parent, op)
	var serial float64
	pass := func(name string, group core.GroupID, run func(rng *rand.Rand)) {
		if !groups[group] {
			return
		}
		rng := rand.New(rand.NewSource(core.SubSeed(seed, uint64(group))))
		start := time.Now()
		id := tr.begin(name, pid, op)
		run(rng)
		tr.end(id)
		serial += durMs(time.Since(start))
	}
	pass("stats.structure", core.GroupStructure, func(*rand.Rand) {
		p.NumNodes = stats.NumNodes(g)
		p.NumEdges = stats.NumEdges(g)
		p.AvgDegree = stats.AvgDegree(g)
		p.DegreeVariance = stats.DegreeVariance(g)
		p.DegreeDist = stats.DegreeDistribution(g)
		p.Assortativity = stats.Assortativity(g)
	})
	pass("stats.triangles", core.GroupTriangles, func(*rand.Rand) {
		tri, wedges, acc := stats.TriangleProfileParallel(g, workers, budget)
		p.Triangles = tri
		p.GCC = stats.GlobalClusteringFrom(tri, wedges)
		p.ACC = acc
	})
	name, distances := distancePass(g, opt.DistanceMode, workers, budget)
	pass(name, core.GroupDistances, func(rng *rand.Rand) {
		ds := distances(rng)
		p.Diameter = ds.Diameter
		p.AvgPath = ds.AvgPath
		p.DistanceDist = ds.Distribution
	})
	pass("community.louvain", core.GroupCommunity, func(rng *rand.Rand) {
		cd := community.Louvain(g, rng)
		p.CommunityLabels = cd.Labels
		p.Modularity = cd.Modularity
	})
	pass("stats.evc", core.GroupCentrality, func(*rand.Rand) {
		p.EVC = stats.EigenvectorCentrality(g, evcIterations, 0)
	})
	tr.end(pid)
	runtime.ReadMemStats(&after)
	tr.add("core.profile_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)
	return p, serial
}

// distancePass picks the distance estimator the profile would run for
// mode on g, and names its span after the kernel that actually runs.
func distancePass(g *graph.Graph, mode core.DistanceMode, workers int, budget *par.Budget) (string, func(*rand.Rand) stats.DistanceStats) {
	exact := func(*rand.Rand) stats.DistanceStats { return stats.ExactDistancesParallel(g, workers, budget) }
	switch mode {
	case core.DistanceExact:
		return "stats.distances_exact", exact
	case core.DistanceANF:
		return "stats.anf", func(rng *rand.Rand) stats.DistanceStats {
			return stats.ANFDistancesParallel(g, rng, workers, budget)
		}
	case core.DistanceSampled:
		if pathSamples >= g.N() {
			return "stats.distances_exact", exact
		}
	default:
		if g.N() <= exactPathLimit {
			return "stats.distances_exact", exact
		}
	}
	return "stats.distances_sampled", func(rng *rand.Rand) stats.DistanceStats {
		return stats.SampledDistancesParallel(g, pathSamples, rng, workers, budget)
	}
}

// profileOverlap recomputes a profile with core.ComputeProfileSeeded on
// two workers, outside any op, and records its wall time beside the
// serial sum of the same profile's replayed passes.
func profileOverlap(tr *tracer, op int, j overlapJob) {
	opt := j.opt
	opt.Workers, opt.Budget = workerProcs, nil
	id := tr.begin("core.profile_parallel", -1, op)
	core.ComputeProfileSeeded(j.g, opt, j.seed)
	tr.end(id)
	tr.add("overlap.serial_ms", j.serialMs)
	tr.add("overlap.parallel_ms", tr.ms(id))
}

// gridTraced is op i of grid-cold's traced pass: the op's grid replayed
// serially, then one overlap sample per dataset.
func gridTraced(tr *tracer, seed int64, i int) opResult {
	op := tr.begin(opSpan, -1, i)
	sp := replaySpec{
		algs:     core.AlgorithmNames(),
		datasets: datasets.Names(),
		eps:      gridEpsilons,
		scale:    gridScale,
		seed:     opSeed(seed, i),
		workers:  1,
	}
	cells, jobs, err := replayGrid(tr, op, i, sp, nil, make(map[string]bool))
	tr.end(op)
	r := opResult{Index: i, Ms: tr.ms(op)}
	if err == nil {
		r.Value, err = checkCells(cells, gridCells(), len(core.AllQueries()))
	}
	if err != nil {
		r.Err = err.Error()
	}
	for _, j := range jobs {
		profileOverlap(tr, i, j)
	}
	return r
}
