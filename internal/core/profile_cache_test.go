package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/par"
)

// memoRuns makes each run of a memo test use seeds no earlier run in
// the process has cached (go test -count=N reruns in one process).
var memoRuns int64

// recordQueries is a custom query that remembers the opt.Queries its
// Compute was given, so tests can check that the memo's restricted
// computation hands custom passes the caller's options.
var recordQueries struct {
	once sync.Once
	id   QueryID
	mu   sync.Mutex
	seen [][]QueryID
}

func recordQueriesID(t testing.TB) QueryID {
	recordQueries.once.Do(func() {
		id, err := RegisterQuery(QuerySpec{
			Symbol: "TestRecordQueries",
			Compute: func(g *graph.Graph, opt ProfileOptions, rng *rand.Rand) float64 {
				recordQueries.mu.Lock()
				recordQueries.seen = append(recordQueries.seen, opt.Queries)
				recordQueries.mu.Unlock()
				return float64(g.M()) + rng.Float64()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		recordQueries.id = id
	})
	return recordQueries.id
}

// takeRecorded returns and clears the opt.Queries lists seen so far.
func takeRecorded() [][]QueryID {
	recordQueries.mu.Lock()
	defer recordQueries.mu.Unlock()
	seen := recordQueries.seen
	recordQueries.seen = nil
	return seen
}

// cachedDelta runs ComputeProfileCached and reports the memo's hit and
// miss counts for that call.
func cachedDelta(g *graph.Graph, opt ProfileOptions, seed int64) (p *Profile, hits, misses uint64) {
	before := ProfileCacheStats()
	p = ComputeProfileCached(g, opt, seed)
	after := ProfileCacheStats()
	return p, after.Hits - before.Hits, after.Misses - before.Misses
}

// TestProfileCacheMemoizes: a repeat is answered from the memo, every
// answer equals the uncached profile, a new seed reruns only the passes
// that draw randomness, and different options or graphs miss.
func TestProfileCacheMemoizes(t *testing.T) {
	memoRuns++
	base := 1000 * memoRuns
	g := gen.GNM(200, 600, rng(51)) // auto mode: exact BFS, no randomness
	all := ProfileOptions{Queries: AllQueries()}
	sampled := ProfileOptions{Queries: AllQueries(), DistanceMode: DistanceSampled}
	g2 := gen.GNM(200, 600, rng(52+base)) // new each run: seed-free passes outlive a run
	if g2.Fingerprint() == g.Fingerprint() {
		t.Fatal("test graphs share a fingerprint")
	}

	ComputeProfileCached(g, all, base) // warm
	for _, step := range []struct {
		name         string
		g            *graph.Graph
		opt          ProfileOptions
		seed         int64
		hits, misses uint64
	}{
		{"repeat", g, all, base, 5, 0},
		{"new seed reruns Louvain only", g, all, base + 1, 4, 1},
		{"sampled distances read the mode", g, sampled, base, 4, 1},
		{"sampled distances read the seed", g, sampled, base + 2, 3, 2},
		{"different graph", g2, all, base, 0, 5},
		{"repeat after the others", g, all, base + 1, 5, 0},
	} {
		got, hits, misses := cachedDelta(step.g, step.opt, step.seed)
		if hits != step.hits || misses != step.misses {
			t.Errorf("%s: %d hits, %d misses; want %d, %d", step.name, hits, misses, step.hits, step.misses)
		}
		if want := ComputeProfileSeeded(step.g, step.opt, step.seed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cached profile differs from ComputeProfileSeeded", step.name)
		}
	}
}

// TestProfileCachedMatchesSeeded: across every distance mode (an
// unrecognised one included), on both sides of exactPathLimit and with seeds interleaved so seed-free
// entries are reused across seeds, the memo returns exactly
// ComputeProfileSeeded's profile. A custom pass sees the caller's
// opt.Queries, not the memo's restricted list.
func TestProfileCachedMatchesSeeded(t *testing.T) {
	memoRuns++
	base := 1000 * memoRuns
	custom := recordQueriesID(t)
	takeRecorded()
	graphs := []*graph.Graph{
		gen.GNM(exactPathLimit, 2*exactPathLimit, rng(61)),
		gen.GNM(exactPathLimit+1, 2*exactPathLimit, rng(62)),
	}
	for _, g := range graphs {
		for _, mode := range []DistanceMode{DistanceAuto, DistanceExact, DistanceSampled, DistanceANF, "bogus"} {
			for i, queries := range [][]QueryID{
				nil,
				{QDiameter, QModularity, custom, QNumEdges},
			} {
				opt := ProfileOptions{Queries: queries, DistanceMode: mode}
				for _, seed := range []int64{base, base + 1, base} {
					got := ComputeProfileCached(g, opt, seed)
					for _, seen := range takeRecorded() {
						if !reflect.DeepEqual(seen, queries) {
							t.Fatalf("n=%d mode=%q: custom pass got Queries %v, want the caller's %v", g.N(), mode, seen, queries)
						}
					}
					want := ComputeProfileSeeded(g, opt, seed)
					takeRecorded()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d mode=%q queries#%d seed=%d: cached profile differs from ComputeProfileSeeded", g.N(), mode, i, seed)
					}
				}
			}
		}
	}
}

// FuzzProfileCachedMatchesSeeded: on byte-derived small graphs and any
// distance mode, two cached calls with
// different seeds each equal ComputeProfileSeeded. The memo persists
// across inputs, so entries of one graph or seed must never answer for
// another.
func FuzzProfileCachedMatchesSeeded(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5}, int64(1), uint8(0))
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5}, int64(2), uint8(2))
	f.Add([]byte{30, 0, 1, 2, 3, 4, 5, 6, 7, 1, 9, 9, 4}, int64(-7), uint8(3))
	f.Add([]byte{}, int64(0), uint8(4))
	modes := []DistanceMode{DistanceAuto, DistanceExact, DistanceSampled, DistanceANF, "bogus"}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, rawMode uint8) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0]%48), data[1:]
		}
		edges := make([]graph.Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data) && n > 0; i += 2 {
			edges = append(edges, graph.Canon(int32(int(data[i])%n), int32(int(data[i+1])%n)))
		}
		g := graph.FromEdges(n, edges)
		opt := ProfileOptions{DistanceMode: modes[int(rawMode)%len(modes)], Queries: AllQueries()}
		for _, s := range []int64{seed, seed + 1} {
			if got, want := ComputeProfileCached(g, opt, s), ComputeProfileSeeded(g, opt, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d m=%d mode=%q seed=%d: cached profile differs from ComputeProfileSeeded", g.N(), g.M(), opt.DistanceMode, s)
			}
		}
	})
}

// compareUncached is CompareGraphs without the memo: ComputeProfileSeeded
// on both sides, then Score.
func compareUncached(truth, syn *graph.Graph, seed int64, opt ProfileOptions) []CompareRow {
	pt := ComputeProfileSeeded(truth, opt, SubSeed(seed, 0))
	ps := ComputeProfileSeeded(syn, opt, SubSeed(seed, 1))
	rows := make([]CompareRow, 0, len(opt.Queries))
	for _, q := range opt.Queries {
		v, higher := Score(q, pt, ps)
		row := CompareRow{Query: q.String(), Metric: q.Metric(), Error: v, HigherBetter: higher}
		row.TrueValue, row.SynValue, _ = ScalarValues(q, pt, ps)
		rows = append(rows, row)
	}
	return rows
}

// TestCompareGraphsWorkerInvariant: CompareGraphs profiles its two sides
// at once, on a shared budget, yet its rows are the serial uncached rows
// at Workers 1, 2 and 4 and under an externally owned budget, for the
// full and the structural query set, and when both sides are one graph.
// Each run compares graphs no earlier run cached, so every pass runs
// under the configuration being checked.
func TestCompareGraphsWorkerInvariant(t *testing.T) {
	memoRuns++
	structural := []QueryID{QNumNodes, QNumEdges, QTriangles, QAvgDegree, QDegreeVariance,
		QDegreeDistribution, QGlobalClustering, QAvgClustering, QAssortativity, QEigenvectorCentrality}
	configs := []struct {
		name string
		opt  ProfileOptions
	}{
		{"workers=1", ProfileOptions{Workers: 1}},
		{"workers=2", ProfileOptions{Workers: 2}},
		{"workers=4", ProfileOptions{Workers: 4}},
		{"budget", ProfileOptions{Workers: 3, Budget: par.NewBudget(2)}},
	}
	graphSeed := 5000 * memoRuns
	for _, set := range []struct {
		name    string
		queries []QueryID
	}{{"full", AllQueries()}, {"structural", structural}} {
		for _, c := range configs {
			for _, same := range []bool{false, true} {
				graphSeed += 2
				truth := gen.GNM(700, 2100, rng(graphSeed))
				syn := gen.GNM(700, 2800, rng(graphSeed+1))
				if same {
					syn = truth
				}
				opt := c.opt
				opt.Queries = set.queries
				got := CompareGraphs(truth, syn, graphSeed, opt)
				want := compareUncached(truth, syn, graphSeed, ProfileOptions{Queries: set.queries, Workers: 1})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s same=%t: rows differ from the serial uncached rows:\n got %+v\nwant %+v", set.name, c.name, same, got, want)
				}
			}
		}
	}
}

// TestCompareGraphsMatchesUncached: comparing one synthetic graph again
// under fresh seeds gives exactly the uncached rows, for the full and a
// structural query set, every distance mode, and graphs on both sides
// of exactPathLimit. A fresh-seed repeat misses only the seeded passes
// of each side: Louvain, and distances unless they run exact BFS.
func TestCompareGraphsMatchesUncached(t *testing.T) {
	memoRuns++
	seed := 1000 * memoRuns
	full := AllQueries()
	structural := []QueryID{QNumNodes, QNumEdges, QTriangles, QAvgDegree, QDegreeVariance,
		QDegreeDistribution, QGlobalClustering, QAvgClustering, QAssortativity, QEigenvectorCentrality}
	for i, n := range []int{exactPathLimit, exactPathLimit + 1} {
		truth := gen.GNM(n, 2*n, rng(int64(71+2*i)))
		syn := gen.GNM(n, 3*n, rng(int64(72+2*i)))
		for _, mode := range []DistanceMode{DistanceAuto, DistanceExact, DistanceSampled, DistanceANF, "bogus"} {
			fullSeeded := uint64(1) // Louvain
			if mode == DistanceSampled || mode == DistanceANF || (mode != DistanceExact && n > exactPathLimit) {
				fullSeeded++ // distances do not run exact BFS
			}
			for _, set := range []struct {
				name           string
				queries        []QueryID
				passes, seeded uint64
			}{
				{"full", full, 5, fullSeeded},
				{"structural", structural, 3, 0},
			} {
				opt := ProfileOptions{Queries: set.queries, DistanceMode: mode}
				for rep := 0; rep < 3; rep++ {
					seed++
					before := ProfileCacheStats()
					got := CompareGraphs(truth, syn, seed, opt)
					after := ProfileCacheStats()
					if want := compareUncached(truth, syn, seed, opt); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d mode=%q %s rep %d: CompareGraphs rows differ from the uncached composition:\n got %+v\nwant %+v", n, mode, set.name, rep, got, want)
					}
					if rep == 0 {
						continue // earlier modes may have left some passes
					}
					hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
					if wantMiss := 2 * set.seeded; hits != 2*set.passes-wantMiss || misses != wantMiss {
						t.Errorf("n=%d mode=%q %s fresh seed: %d hits, %d misses; want %d, %d", n, mode, set.name, hits, misses, 2*set.passes-wantMiss, wantMiss)
					}
				}
			}
		}
	}
}

// TestSeededPassesCannotEvictSeedFree: seeded entries that are never
// asked for again (a fresh seed per request) do not push out the
// seed-free passes another graph keeps reusing.
func TestSeededPassesCannotEvictSeedFree(t *testing.T) {
	memoRuns++
	base := 1000 * memoRuns
	a := gen.GNM(300, 900, rng(81))
	b := gen.GNM(300, 900, rng(82))
	seedFree := ProfileOptions{Queries: []QueryID{QNumEdges, QGlobalClustering, QEigenvectorCentrality}}
	ComputeProfileCached(b, seedFree, base)
	cd := ProfileOptions{Queries: []QueryID{QCommunityDetection}}
	for i := int64(0); i < 100; i++ {
		ComputeProfileCached(a, cd, base+i)
	}
	if _, hits, misses := cachedDelta(b, seedFree, base+100); hits != 3 || misses != 0 {
		t.Fatalf("graph B after 100 fresh-seed CD profiles of A: %d hits, %d misses; want 3, 0", hits, misses)
	}
}

// FuzzCompareGraphsMatchesUncached: on byte-derived graph pairs (two
// graphs, or one graph on both sides), any seed and distance mode and
// 1, 2 or 4 workers, the CompareGraphs rows equal the uncached rows bit
// for bit, NaN rows included. The memo persists across inputs, so
// entries of one graph, side or seed must never answer for another.
func FuzzCompareGraphsMatchesUncached(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 5, 6, 6, 7}, int64(1), uint8(0), uint8(0), false)
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 5, 6, 6, 7}, int64(2), uint8(2), uint8(1), true)
	f.Add([]byte{30, 0, 1, 2, 3, 4, 5, 6, 7, 1, 9, 9, 4, 20, 21}, int64(-7), uint8(3), uint8(2), false)
	f.Add([]byte{}, int64(0), uint8(4), uint8(1), true)
	modes := []DistanceMode{DistanceAuto, DistanceExact, DistanceSampled, DistanceANF, "bogus"}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, rawMode, rawWorkers uint8, same bool) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0]%48), data[1:]
		}
		graphOf := func(data []byte) *graph.Graph {
			edges := make([]graph.Edge, 0, len(data)/2)
			for i := 0; i+1 < len(data) && n > 0; i += 2 {
				edges = append(edges, graph.Canon(int32(int(data[i])%n), int32(int(data[i+1])%n)))
			}
			return graph.FromEdges(n, edges)
		}
		truth, syn := graphOf(data[:len(data)/2]), graphOf(data[len(data)/2:])
		if same {
			syn = truth
		}
		opt := ProfileOptions{
			DistanceMode: modes[int(rawMode)%len(modes)],
			Queries:      AllQueries(),
			Workers:      []int{1, 2, 4}[int(rawWorkers)%3],
		}
		got, want := CompareGraphs(truth, syn, seed, opt), compareUncached(truth, syn, seed, opt)
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Query != w.Query || g.Metric != w.Metric || g.HigherBetter != w.HigherBetter ||
				math.Float64bits(g.TrueValue) != math.Float64bits(w.TrueValue) ||
				math.Float64bits(g.SynValue) != math.Float64bits(w.SynValue) ||
				math.Float64bits(g.Error) != math.Float64bits(w.Error) {
				t.Fatalf("n=%d mode=%q workers=%d same=%t seed=%d: row %d = %+v, want %+v",
					n, opt.DistanceMode, opt.Workers, same, seed, i, g, w)
			}
		}
	})
}
