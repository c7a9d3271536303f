package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
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
	// ExactPathLimit nodes, sampled BFS above it.
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

// ProfileOptions tunes the expensive queries and the execution of the
// profile computation itself.
type ProfileOptions struct {
	// ExactPathLimit is the node count up to which all-pairs BFS is exact;
	// larger graphs use sampled BFS. Default 2000.
	ExactPathLimit int
	// PathSamples is the BFS source sample size for large graphs.
	// Default 64.
	PathSamples int
	// EVCIterations bounds power iteration. Default 60.
	EVCIterations int
	// ExactDiameter replaces the sampled diameter lower bound with the
	// exact iFUB computation on the largest component — used by the
	// verification appendix, where diameter is compared in absolute
	// terms rather than relative across algorithms.
	ExactDiameter bool
	// DistanceMode selects the Q7–Q9 estimator: auto (exact below
	// ExactPathLimit, sampled above), exact, sampled, or anf. Unknown
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

func (o ProfileOptions) withDefaults() ProfileOptions {
	if o.ExactPathLimit <= 0 {
		o.ExactPathLimit = 2000
	}
	if o.PathSamples <= 0 {
		o.PathSamples = 64
	}
	if o.EVCIterations <= 0 {
		o.EVCIterations = 60
	}
	return o
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
	opt = opt.withDefaults()
	workers := opt.effectiveWorkers()
	budget := opt.Budget
	if budget == nil && workers > 1 {
		budget = par.NewBudget(workers - 1)
	}

	p := &Profile{}
	tasks := profileTasks(g, opt, seed, p, workers, budget)
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
// writes a disjoint set of Profile fields, so passes are race-free
// without locking; custom passes share the Custom map behind a mutex.
// workers and budget parameterise the kernels inside the heavy passes —
// the same allowance the pass pool itself draws from.
func profileTasks(g *graph.Graph, opt ProfileOptions, seed int64, p *Profile, workers int, budget *par.Budget) []profileTask {
	selected := opt.Queries
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
		switch opt.DistanceMode {
		case DistanceExact:
			ds = stats.ExactDistancesParallel(g, workers, budget)
		case DistanceSampled:
			ds = stats.SampledDistancesParallel(g, opt.PathSamples, rng, workers, budget)
		case DistanceANF:
			ds = stats.ANFDistancesParallel(g, rng, workers, budget)
		default: // DistanceAuto and unrecognised values
			if g.N() <= opt.ExactPathLimit {
				ds = stats.ExactDistancesParallel(g, workers, budget)
			} else {
				ds = stats.SampledDistancesParallel(g, opt.PathSamples, rng, workers, budget)
			}
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
		p.EVC = stats.EigenvectorCentrality(g, opt.EVCIterations, 0)
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
// deterministic functions of the graph; the distance group (sampling,
// ANF hashing), Louvain, and custom queries draw from the seed. Callers
// can normalise the seed in cache keys for invariant query sets so
// repeated requests with cosmetically different seeds share one entry.
// nil selects every registered query, which includes RNG consumers.
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

// seedInvariant extends ProfileSeedInvariant with the option fields that
// consume RNG regardless of group (the exact-diameter sweep seeds its
// iFUB root randomly).
func (o ProfileOptions) seedInvariant() bool {
	return !o.ExactDiameter && ProfileSeedInvariant(o.Queries)
}

// profileCacheKey identifies one (graph, options, seed) profile
// computation; the graph contributes its structural fingerprint.
type profileCacheKey struct {
	fp  uint64
	opt string
}

// optKey canonically encodes everything besides the graph that affects
// the profile's value. Workers/Budget are excluded: they change
// only the schedule, never the result; the seed is normalised to zero
// when no selected pass consumes RNG, so seed-invariant profiles share
// one cache entry.
func (o ProfileOptions) optKey(seed int64) string {
	if o.seedInvariant() {
		seed = 0
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "l%d s%d i%d x%t m%s seed%d q", o.ExactPathLimit, o.PathSamples, o.EVCIterations, o.ExactDiameter, o.DistanceMode, seed)
	if o.Queries == nil {
		fmt.Fprintf(&sb, "all%d", len(RegisteredQueries()))
	} else {
		ids := make([]int, len(o.Queries))
		for i, q := range o.Queries {
			ids[i] = int(q)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&sb, ",%d", id)
		}
	}
	return sb.String()
}

// profileCache memoizes ComputeProfileCached, bounded at 64 entries.
// True-graph profiles are the target (one per dataset per option set);
// synthetic one-shot graphs should use the uncached path.
var profileCache = lru.New[profileCacheKey, *Profile](64)

// ComputeProfileCached is ComputeProfileSeeded behind a process-wide
// LRU memo keyed by graph fingerprint, options, and seed. Use it for
// graphs whose profile is requested repeatedly — the benchmark runner's
// true graphs, Compare baselines, and the verification appendix. The
// returned profile is shared: callers must treat it as read-only.
func ComputeProfileCached(g *graph.Graph, opt ProfileOptions, seed int64) *Profile {
	key := profileCacheKey{fp: g.Fingerprint(), opt: opt.withDefaults().optKey(seed)}
	if p, ok := profileCache.Get(key); ok {
		return p
	}
	// Concurrent misses on one key both compute; Add keeps the first copy.
	return profileCache.Add(key, ComputeProfileSeeded(g, opt, seed))
}

// ProfileCacheStats reports the profile memo's counters and size.
func ProfileCacheStats() lru.Stats { return profileCache.Stats() }
