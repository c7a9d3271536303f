package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

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

// exactBFS reports whether the distance pass runs all-pairs BFS on a
// graph of n nodes: DistanceExact, or auto (and unrecognised) modes up to
// exactPathLimit nodes. Exact BFS is the one distance estimator that
// draws no randomness; the distance pass and passKey both ask here, so
// they cannot disagree.
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
	return profiles([]*graph.Graph{g}, []int64{seed}, opt, nil)[0]
}

// ComputeProfileCached is ComputeProfileSeeded; a memo is a ProfileMemo.
//
//pgb:export kept for pgb/bench until ROADMAP item 1's benchmark-tagged PR
func ComputeProfileCached(g *graph.Graph, opt ProfileOptions, seed int64) *Profile {
	return ComputeProfileSeeded(g, opt, seed)
}

// profileTask is one pass of one graph: the unit the profile pool
// schedules.
type profileTask struct {
	pass  profilePass
	graph int // index into the graphs being profiled
	cost  costClass
	seed  int64
	run   func(p *Profile, rng *rand.Rand)
	out   *Profile // the fields of pass, once run has written them
	// memo, when non-nil, is the LRU that stores out under key.
	memo *lru.Cache[passKey, *Profile]
	key  passKey
}

// profiles computes the profile of each graph gs[i] on seed seeds[i]
// from one pool in which every pass of every graph is one task. With a
// non-nil memo, each task is first looked up in it, only the misses
// run, and their results are stored afterwards. The misses run heaviest
// first, deterministic within a cost class, on the calling goroutine
// plus helpers drawn from one allowance — opt.Budget, or a new one of
// Workers-1 — that the kernels inside the heavy passes draw from too.
// Each pass owns its RNG stream and every pass writes only its own
// fields (copyPass lists them), so the profiles do not depend on the
// schedule and tasks need no locking.
func profiles(gs []*graph.Graph, seeds []int64, opt ProfileOptions, memo *ProfileMemo) []*Profile {
	workers := par.Workers(opt.Workers)
	budget := opt.Budget
	if budget == nil && workers > 1 {
		budget = par.NewBudget(workers - 1)
	}
	passes := passesOf(opt.Queries)
	out := make([]*Profile, len(gs))
	var tasks []profileTask
	for i, g := range gs {
		out[i] = &Profile{}
		for _, ps := range passes {
			t := profileTask{pass: ps, graph: i, seed: SubSeed(seeds[i], ps.order())}
			if memo != nil {
				key, seeded := opt.passKey(g.Fingerprint(), g.N(), ps, seeds[i])
				t.memo, t.key = memo.seedFree, key
				if seeded {
					t.memo = memo.seeded
				}
				if hit, ok := t.memo.Get(key); ok {
					copyPass(out[i], hit, ps)
					continue
				}
			}
			t.cost, t.run = passTask(g, opt, ps, workers, budget)
			t.out = &Profile{}
			tasks = append(tasks, t)
		}
	}

	// Heaviest passes first, then in pass order, then in graph order.
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].cost != tasks[j].cost {
			return tasks[i].cost > tasks[j].cost
		}
		return tasks[i].pass.order() < tasks[j].pass.order()
	})
	claim := par.Queue(len(tasks))
	budget.Do(min(workers, len(tasks))-1, func() {
		for i, ok := claim(); ok; i, ok = claim() {
			t := tasks[i]
			t.run(t.out, rand.New(rand.NewSource(t.seed)))
		}
	})

	for _, t := range tasks {
		entry := t.out
		if t.memo != nil {
			// Concurrent misses on one key both compute; Add keeps the
			// first copy.
			entry = t.memo.Add(t.key, entry)
		}
		copyPass(out[t.graph], entry, t.pass)
	}
	return out
}

// passTask returns the cost class of pass ps on g and the function that
// writes the pass's fields into a profile. workers and budget
// parameterise the kernels inside the heavy passes — the same allowance
// the pool itself draws from.
func passTask(g *graph.Graph, opt ProfileOptions, ps profilePass, workers int, budget *par.Budget) (costClass, func(p *Profile, rng *rand.Rand)) {
	switch ps.group {
	case GroupStructure:
		return costLight, func(p *Profile, _ *rand.Rand) {
			p.NumNodes = stats.NumNodes(g)
			p.NumEdges = stats.NumEdges(g)
			p.AvgDegree = stats.AvgDegree(g)
			p.DegreeVariance = stats.DegreeVariance(g)
			p.DegreeDist = stats.DegreeDistribution(g)
			p.Assortativity = stats.Assortativity(g)
		}
	case GroupTriangles:
		return costHeavy, func(p *Profile, _ *rand.Rand) {
			// One forward-orientation pass yields Q3, Q10 and Q11 together.
			tri, wedges, acc := stats.TriangleProfileParallel(g, workers, budget)
			p.Triangles = tri
			p.GCC = stats.GlobalClusteringFrom(tri, wedges)
			p.ACC = acc
		}
	case GroupDistances:
		// ANF replaces the BFS sweep with O(diameter) register rounds — a
		// bounded iterative pass, so it schedules as costMedium rather than
		// costHeavy.
		cost := costHeavy
		if opt.DistanceMode == DistanceANF {
			cost = costMedium
		}
		return cost, func(p *Profile, rng *rand.Rand) {
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
		}
	case GroupCommunity:
		return costHeavy, func(p *Profile, rng *rand.Rand) {
			cd := community.Louvain(g, rng)
			p.CommunityLabels = cd.Labels
			p.Modularity = cd.Modularity
		}
	case GroupCentrality:
		return costMedium, func(p *Profile, _ *rand.Rand) {
			p.EVC = stats.EigenvectorCentrality(g, evcIterations, 0)
		}
	}
	// Custom passes receive the caller's opt, whole. Their cost is
	// unknown, so they schedule as heavy.
	s, _ := registry.spec(ps.query)
	return costHeavy, func(p *Profile, rng *rand.Rand) {
		p.Custom = map[QueryID]float64{s.ID: s.Compute(g, opt, rng)}
	}
}

// ProfileSeedInvariant reports whether a profile restricted to queries
// is independent of its seed: true when no selected pass draws
// randomness on a graph too large for exact BFS — the distance pass's
// one seed-free estimator, so any distance query makes it report false,
// as do Louvain and custom queries. Callers can normalise the seed in
// cache keys for invariant query sets so repeated requests with
// cosmetically different seeds share one entry. nil selects every
// registered query, which includes RNG consumers.
func ProfileSeedInvariant(queries []QueryID) bool {
	if queries == nil {
		return false
	}
	for _, ps := range passesOf(queries) {
		if _, seeded := (ProfileOptions{}).passKey(0, math.MaxInt, ps, 0); seeded {
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

// order is the pass's RNG stream index and its tie-break among passes of
// one cost class.
func (ps profilePass) order() uint64 { return uint64(ps.group) + uint64(ps.query) }

// passesOf lists the distinct passes queries need, in first-use order;
// nil selects every registered query, and unregistered ids are skipped.
func passesOf(queries []QueryID) []profilePass {
	if queries == nil {
		queries = RegisteredQueries()
	}
	var passes []profilePass
	for _, q := range queries {
		s, ok := registry.spec(q)
		if !ok {
			continue
		}
		ps := profilePass{group: s.Group}
		if s.Group == GroupCustom {
			ps.query = s.ID
		}
		if !slices.Contains(passes, ps) {
			passes = append(passes, ps)
		}
	}
	return passes
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
	// Distance passes read the mode; custom passes read the whole
	// ProfileOptions, so they add the query list.
	mode    DistanceMode
	queries string
	seed    int64
}

// passKey builds the memo key of pass ps on a graph with fingerprint fp
// and n nodes, and reports whether the pass draws randomness: the one
// place that decides it, for the memo's choice of LRU (a caller's seed
// may itself be 0) and for ProfileSeedInvariant. The distance pass draws
// exactly when it does not run exact BFS.
func (o ProfileOptions) passKey(fp uint64, n int, ps profilePass, seed int64) (k passKey, seeded bool) {
	k = passKey{fp: fp, pass: ps}
	switch ps.group {
	case GroupStructure, GroupTriangles, GroupCentrality:
	case GroupDistances:
		k.mode, seeded = o.DistanceMode, !o.exactBFS(n)
	case GroupCommunity:
		seeded = true
	default:
		k.mode, seeded = o.DistanceMode, true
		ids := make([]byte, 0, 4*len(o.Queries))
		for _, q := range o.Queries {
			ids = strconv.AppendInt(append(ids, ','), int64(q), 10)
		}
		k.queries = string(ids)
	}
	if seeded {
		k.seed = seed
	}
	return k, seeded
}

// ProfileMemo memoizes profile passes across calls for whoever owns it.
// Its two LRUs split passes by passKey's seeded decision, so seeded
// entries a fresh seed inserts (Louvain at least) churn among 64 and
// never evict the 256 seed-free ones later requests of a graph reuse.
// Profiles built from it share its slices: treat them as read-only.
type ProfileMemo struct {
	seedFree, seeded *lru.Cache[passKey, *Profile]
}

// NewProfileMemo returns an empty memo.
func NewProfileMemo() *ProfileMemo {
	return &ProfileMemo{seedFree: lru.New[passKey, *Profile](256), seeded: lru.New[passKey, *Profile](64)}
}

// Stats reports the memo's counters and size, summed over its two LRUs;
// every pass lookup counts one hit or one miss.
func (m *ProfileMemo) Stats() lru.Stats {
	a, b := m.seedFree.Stats(), m.seeded.Stats()
	return lru.Stats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Entries: a.Entries + b.Entries}
}
