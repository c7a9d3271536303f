package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"pgb/internal/community"
	"pgb/internal/graph"
	"pgb/internal/lru"
	"pgb/internal/par"
	"pgb/internal/stats"
)

// Profile caches every query answer for one graph, so the multi-query
// comparison against a synthetic graph costs one pass per graph. Fields
// are only populated for the compute groups the selected queries need;
// custom query answers live in Custom keyed by their QueryID.
type Profile struct {
	NumNodes        float64
	NumEdges        float64
	Triangles       float64
	AvgDegree       float64
	DegreeVariance  float64
	DegreeDist      []float64
	Diameter        float64
	AvgPath         float64
	DistanceDist    []float64
	GCC             float64
	ACC             float64
	CommunityLabels []int
	Modularity      float64
	Assortativity   float64
	EVC             []float64
	Custom          map[QueryID]float64
}

// DistanceMode selects the estimator behind the Q7–Q9 distance group.
type DistanceMode string

const (
	// DistanceAuto is the default: exact all-pairs BFS up to
	// exactPathLimit nodes, sampled BFS above it.
	DistanceAuto DistanceMode = ""
	// DistanceExact forces all-pairs BFS at any size.
	DistanceExact DistanceMode = "exact"
	// DistanceSampled forces sampled-source BFS at any size (graphs
	// smaller than the sample count still fall back to exact).
	DistanceSampled DistanceMode = "sampled"
	// DistanceANF estimates the distance group with HyperANF — bounded
	// relative error, O(diameter·m) instead of O(n·m), bit-identical at
	// every worker count (DESIGN.md §11).
	DistanceANF DistanceMode = "anf"
)

// ParseDistanceMode validates a user-supplied distance mode string.
// "auto" and "" both select DistanceAuto.
func ParseDistanceMode(s string) (DistanceMode, error) {
	switch DistanceMode(s) {
	case DistanceAuto, DistanceMode("auto"):
		return DistanceAuto, nil
	case DistanceExact, DistanceSampled, DistanceANF:
		return DistanceMode(s), nil
	}
	return DistanceAuto, fmt.Errorf("unknown distance mode %q (want auto, exact, sampled, or anf)", s)
}

// Tuning of the expensive queries. The checkpoint header writes all
// three and CheckpointConfig refuses a manifest that differs
// (DESIGN.md §5).
const (
	// exactPathLimit is the node count up to which the auto distance mode
	// runs all-pairs BFS; larger graphs use sampled BFS.
	exactPathLimit = 2000
	// pathSamples is the BFS source sample size of sampled distances.
	pathSamples = 64
	// evcIterations bounds the eigenvector-centrality power iteration.
	evcIterations = 60
)

// ProfileOptions tunes the expensive queries and the execution of the
// profile computation itself.
type ProfileOptions struct {
	// ExactDiameter replaces the sampled diameter lower bound with the
	// exact iFUB computation on the largest component — used by the
	// verification appendix, where diameter is compared in absolute
	// terms rather than relative across algorithms.
	ExactDiameter bool
	// DistanceMode selects the Q7–Q9 estimator: auto (exact up to
	// exactPathLimit nodes, sampled above), exact, sampled, or anf. Unknown
	// values behave like auto; validate boundary input with
	// ParseDistanceMode.
	DistanceMode DistanceMode
	// Queries restricts the profile to the compute groups these queries
	// need; nil computes every registered query. Results are identical to
	// a full profile on the populated fields.
	Queries []QueryID
	// Workers is the profile's single parallelism budget: it bounds the
	// concurrent passes AND the shard workers inside the triangle/
	// clustering and BFS kernels, which draw helpers from one shared
	// allowance (DESIGN.md §2). 0 selects GOMAXPROCS; 1 is the fully
	// serial baseline. Results are byte-identical at every value.
	Workers int
	// Budget, when non-nil, is an externally owned worker allowance the
	// profile draws every helper from — the grid runner threads one
	// budget through all concurrent cells so grid-level and kernel-level
	// parallelism never oversubscribe Config.Workers. nil gives the
	// computation its own allowance of Workers-1 helpers. Purely a
	// scheduling knob: results never depend on it.
	Budget *par.Budget
}

// effectiveWorkers resolves the parallelism budget: 0 selects GOMAXPROCS.
func (o ProfileOptions) effectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// exactBFS reports whether the distance pass runs all-pairs BFS on a
// graph of n nodes: DistanceExact, or auto (and unrecognised) modes up to
// exactPathLimit nodes. Exact BFS is the one distance estimator that
// draws no randomness; the distance pass and the profile memo's key
// both ask here, so they cannot disagree.
func (o ProfileOptions) exactBFS(n int) bool {
	switch o.DistanceMode {
	case DistanceExact:
		return true
	case DistanceSampled, DistanceANF:
		return false
	}
	return n <= exactPathLimit
}

// SubSeed derives an independent deterministic RNG stream from a base
// seed and a stream index, using a SplitMix64 finalizer. Streams for
// distinct indices are statistically independent, so concurrent profile
// passes (and the truth/synthetic profile pair in Compare) never share
// or sequentially consume one generator.
func SubSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// profileTask is one schedulable pass of the profile computation.
type profileTask struct {
	cost CostClass
	// order breaks cost ties so the dispatch sequence is deterministic.
	order int
	seed  int64
	run   func(rng *rand.Rand)
}

// ComputeProfileSeeded evaluates the selected queries on g. Independent
// compute groups (structural scans, the triangle/clustering pass, the BFS
// sweep, Louvain, power iteration, and each custom query) run concurrently,
// heaviest first, and the triangle/BFS kernels additionally shard their own
// work; both levels draw helper workers from one shared allowance of
// opt.Workers (opt.Budget when the caller owns a wider one), so idle pass
// capacity flows into the kernels of the passes still running. Every pass
// owns a deterministic RNG stream derived from seed and the kernels are
// worker-count-invariant, so the result is identical for a fixed seed
// regardless of parallelism.
func ComputeProfileSeeded(g *graph.Graph, opt ProfileOptions, seed int64) *Profile {
	return computeProfile(g, opt, opt.Queries, seed)
}

// computeProfile is ComputeProfileSeeded restricted to the passes the
// selected queries need (nil: every registered query). Custom passes
// still receive the caller's opt, whose Queries may differ from
// selected.
func computeProfile(g *graph.Graph, opt ProfileOptions, selected []QueryID, seed int64) *Profile {
	workers := opt.effectiveWorkers()
	budget := opt.Budget
	if budget == nil && workers > 1 {
		budget = par.NewBudget(workers - 1)
	}

	p := &Profile{}
	tasks := profileTasks(g, opt, selected, seed, p, workers, budget)
	if len(tasks) == 0 {
		return p
	}

	// Heaviest passes first, deterministic within a class.
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].cost != tasks[j].cost {
			return tasks[i].cost > tasks[j].cost
		}
		return tasks[i].order < tasks[j].order
	})

	extra := workers - 1
	if extra > len(tasks)-1 {
		extra = len(tasks) - 1
	}
	claim := par.Queue(len(tasks))
	budget.Do(extra, func() {
		for i, ok := claim(); ok; i, ok = claim() {
			t := tasks[i]
			t.run(rand.New(rand.NewSource(t.seed)))
		}
	})
	return p
}

// profileTasks assembles the passes the selected queries need. Each pass
// writes a disjoint set of Profile fields (copyPass lists them), so
// passes are race-free without locking; custom passes share the Custom
// map behind a mutex. workers and budget parameterise the kernels inside
// the heavy passes — the same allowance the pass pool itself draws from.
func profileTasks(g *graph.Graph, opt ProfileOptions, selected []QueryID, seed int64, p *Profile, workers int, budget *par.Budget) []profileTask {
	if selected == nil {
		selected = RegisteredQueries()
	}
	groups := make(map[GroupID]bool)
	var custom []QuerySpec
	for _, q := range selected {
		s, ok := registry.spec(q)
		if !ok {
			continue
		}
		if s.Group == GroupCustom {
			custom = append(custom, s)
			continue
		}
		groups[s.Group] = true
	}

	var tasks []profileTask
	add := func(group GroupID, cost CostClass, run func(rng *rand.Rand)) {
		if !groups[group] {
			return
		}
		tasks = append(tasks, profileTask{
			cost:  cost,
			order: int(group),
			seed:  SubSeed(seed, uint64(group)),
			run:   run,
		})
	}

	add(GroupStructure, CostLight, func(*rand.Rand) {
		p.NumNodes = stats.NumNodes(g)
		p.NumEdges = stats.NumEdges(g)
		p.AvgDegree = stats.AvgDegree(g)
		p.DegreeVariance = stats.DegreeVariance(g)
		p.DegreeDist = stats.DegreeDistribution(g)
		p.Assortativity = stats.Assortativity(g)
	})
	add(GroupTriangles, CostHeavy, func(*rand.Rand) {
		// One forward-orientation pass yields Q3, Q10 and Q11 together.
		tri, wedges, acc := stats.TriangleProfileParallel(g, workers, budget)
		p.Triangles = tri
		p.GCC = stats.GlobalClusteringFrom(tri, wedges)
		p.ACC = acc
	})
	// ANF replaces the BFS sweep with O(diameter) register rounds — a
	// bounded iterative pass, so it schedules as CostMedium rather than
	// CostHeavy.
	distCost := CostHeavy
	if opt.DistanceMode == DistanceANF {
		distCost = CostMedium
	}
	add(GroupDistances, distCost, func(rng *rand.Rand) {
		var ds stats.DistanceStats
		switch {
		case opt.exactBFS(g.N()):
			ds = stats.ExactDistancesParallel(g, workers, budget)
		case opt.DistanceMode == DistanceANF:
			ds = stats.ANFDistancesParallel(g, rng, workers, budget)
		default: // sampled, and auto or unrecognised above exactPathLimit
			ds = stats.SampledDistancesParallel(g, pathSamples, rng, workers, budget)
		}
		p.Diameter = ds.Diameter
		p.AvgPath = ds.AvgPath
		p.DistanceDist = ds.Distribution
		if opt.ExactDiameter {
			p.Diameter = float64(stats.ExactDiameter(g, rng))
		}
	})
	add(GroupCommunity, CostHeavy, func(rng *rand.Rand) {
		cd := community.Louvain(g, rng)
		p.CommunityLabels = cd.Labels
		p.Modularity = cd.Modularity
	})
	add(GroupCentrality, CostMedium, func(*rand.Rand) {
		p.EVC = stats.EigenvectorCentrality(g, evcIterations, 0)
	})

	if len(custom) > 0 {
		p.Custom = make(map[QueryID]float64, len(custom))
		var mu sync.Mutex
		for _, s := range custom {
			s := s
			tasks = append(tasks, profileTask{
				cost:  s.Cost,
				order: int(GroupCustom) + int(s.ID),
				seed:  SubSeed(seed, uint64(GroupCustom)+uint64(s.ID)),
				run: func(rng *rand.Rand) {
					v := s.Compute(g, opt, rng)
					mu.Lock()
					p.Custom[s.ID] = v
					mu.Unlock()
				},
			})
		}
	}
	return tasks
}

// ProfileSeedInvariant reports whether a profile restricted to queries
// is independent of its seed: true when no selected pass consumes its
// RNG stream. Structure, triangle/clustering, and centrality passes are
// deterministic functions of the graph; Louvain and custom queries draw
// from the seed, and so does the distance group unless it runs exact
// BFS (sampling and ANF hashing draw; exact BFS draws nothing). Whether
// it runs exact BFS depends on the graph's node count, which this
// function cannot see, so any distance query makes it report false.
// Callers can normalise the seed in cache keys for invariant query sets
// so repeated requests with cosmetically different seeds share one
// entry. nil selects every registered query, which includes RNG
// consumers.
func ProfileSeedInvariant(queries []QueryID) bool {
	if queries == nil {
		return false
	}
	for _, q := range queries {
		s, ok := registry.spec(q)
		if !ok {
			continue
		}
		switch s.Group {
		case GroupDistances, GroupCommunity, GroupCustom:
			return false
		}
	}
	return true
}

// profilePass names one pass of a profile: a built-in compute group, or
// one custom query (group GroupCustom).
type profilePass struct {
	group GroupID
	query QueryID // custom passes only
}

// copyPass copies the Profile fields that pass ps writes from src to dst.
func copyPass(dst, src *Profile, ps profilePass) {
	switch ps.group {
	case GroupStructure:
		dst.NumNodes, dst.NumEdges, dst.AvgDegree = src.NumNodes, src.NumEdges, src.AvgDegree
		dst.DegreeVariance, dst.DegreeDist, dst.Assortativity = src.DegreeVariance, src.DegreeDist, src.Assortativity
	case GroupTriangles:
		dst.Triangles, dst.GCC, dst.ACC = src.Triangles, src.GCC, src.ACC
	case GroupDistances:
		dst.Diameter, dst.AvgPath, dst.DistanceDist = src.Diameter, src.AvgPath, src.DistanceDist
	case GroupCommunity:
		dst.CommunityLabels, dst.Modularity = src.CommunityLabels, src.Modularity
	case GroupCentrality:
		dst.EVC = src.EVC
	default:
		if dst.Custom == nil {
			dst.Custom = make(map[QueryID]float64)
		}
		dst.Custom[ps.query] = src.Custom[ps.query]
	}
}

// passKey identifies one memoized pass result: the graph's fingerprint,
// the pass, the options that pass reads, and the seed — 0 when the pass
// draws no randomness. Workers and Budget never enter: they change only
// the schedule, never the result.
type passKey struct {
	fp   uint64
	pass profilePass
	// Distance passes read mode and exactDiameter; custom passes read
	// the whole ProfileOptions, so they add the query list.
	mode          DistanceMode
	exactDiameter bool
	queries       string
	seed          int64
}

// passKey builds the memo key of pass ps on a graph with fingerprint fp
// and n nodes.
func (o ProfileOptions) passKey(fp uint64, n int, ps profilePass, seed int64) passKey {
	k := passKey{fp: fp, pass: ps}
	switch ps.group {
	case GroupStructure, GroupTriangles, GroupCentrality:
	case GroupDistances:
		k.mode, k.exactDiameter = o.DistanceMode, o.ExactDiameter
		// iFUB seeds its root from the pass's stream (ExactDiameter).
		if !o.exactBFS(n) || o.ExactDiameter {
			k.seed = seed
		}
	case GroupCommunity:
		k.seed = seed
	default:
		k.mode, k.exactDiameter, k.seed = o.DistanceMode, o.ExactDiameter, seed
		ids := make([]byte, 0, 4*len(o.Queries))
		for _, q := range o.Queries {
			ids = strconv.AppendInt(append(ids, ','), int64(q), 10)
		}
		k.queries = string(ids)
	}
	return k
}

// profileCache memoizes ComputeProfileCached one pass at a time, bounded
// at 64 passes. True-graph profiles are the target (one per dataset per
// option set); synthetic one-shot graphs should use the uncached path.
var profileCache = lru.New[passKey, *Profile](64)

// ComputeProfileCached is ComputeProfileSeeded behind a process-wide
// LRU memo of individual passes, keyed by graph fingerprint, pass, the
// options the pass reads, and the seed when the pass draws randomness.
// A fresh seed therefore recomputes only the seed-consuming passes
// (Louvain, custom queries, and non-exact distances); the missing
// passes run together in one restricted profile computation on their
// usual sub-seeds, so the result equals ComputeProfileSeeded's. Use it
// for graphs whose profile is requested repeatedly — the benchmark
// runner's true graphs, Compare baselines, and the verification
// appendix. The returned profile shares its slices with the memo:
// callers must treat it as read-only.
func ComputeProfileCached(g *graph.Graph, opt ProfileOptions, seed int64) *Profile {
	fp, n := g.Fingerprint(), g.N()
	selected := opt.Queries
	if selected == nil {
		selected = RegisteredQueries()
	}
	type miss struct {
		pass profilePass
		key  passKey
	}
	p := &Profile{}
	var missing []miss
	var restricted []QueryID // the selected queries of the missing passes
	hit := make(map[profilePass]bool)
	for _, q := range selected {
		s, ok := registry.spec(q)
		if !ok {
			continue // profileTasks skips unregistered ids too
		}
		ps := profilePass{group: s.Group}
		if s.Group == GroupCustom {
			ps.query = s.ID
		}
		found, seen := hit[ps]
		if !seen {
			key := opt.passKey(fp, n, ps, seed)
			var cached *Profile
			if cached, found = profileCache.Get(key); found {
				copyPass(p, cached, ps)
			} else {
				missing = append(missing, miss{ps, key})
			}
			hit[ps] = found
		}
		if !found {
			restricted = append(restricted, q)
		}
	}
	if len(missing) == 0 {
		return p
	}
	fresh := computeProfile(g, opt, restricted, seed)
	for _, m := range missing {
		// Each entry holds only its own pass's fields. Concurrent misses
		// on one key both compute; Add keeps the first copy.
		entry := &Profile{}
		copyPass(entry, fresh, m.pass)
		copyPass(p, profileCache.Add(m.key, entry), m.pass)
	}
	return p
}

// ProfileCacheStats reports the profile memo's counters and size; every
// pass lookup counts one hit or one miss.
func ProfileCacheStats() lru.Stats { return profileCache.Stats() }
