package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pgb/internal/gen"
	"pgb/internal/graph"
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
	xdiam := ProfileOptions{Queries: AllQueries(), ExactDiameter: true}
	g2 := gen.GNM(200, 600, rng(52))
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
		{"ExactDiameter reads the seed", g, xdiam, base, 4, 1},
		{"ExactDiameter, new seed", g, xdiam, base + 3, 3, 2},
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
// unrecognised one included), with and without ExactDiameter, on both
// sides of exactPathLimit and with seeds interleaved so seed-free
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
			for _, xd := range []bool{false, true} {
				for i, queries := range [][]QueryID{
					nil,
					{QDiameter, QModularity, custom, QNumEdges},
				} {
					opt := ProfileOptions{Queries: queries, DistanceMode: mode, ExactDiameter: xd}
					for _, seed := range []int64{base, base + 1, base} {
						got := ComputeProfileCached(g, opt, seed)
						for _, seen := range takeRecorded() {
							if !reflect.DeepEqual(seen, queries) {
								t.Fatalf("n=%d mode=%q xd=%t: custom pass got Queries %v, want the caller's %v", g.N(), mode, xd, seen, queries)
							}
						}
						want := ComputeProfileSeeded(g, opt, seed)
						takeRecorded()
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("n=%d mode=%q xd=%t queries#%d seed=%d: cached profile differs from ComputeProfileSeeded", g.N(), mode, xd, i, seed)
						}
					}
				}
			}
		}
	}
}

// FuzzProfileCachedMatchesSeeded: on byte-derived small graphs, any
// distance mode and either ExactDiameter setting, two cached calls with
// different seeds each equal ComputeProfileSeeded. The memo persists
// across inputs, so entries of one graph or seed must never answer for
// another.
func FuzzProfileCachedMatchesSeeded(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5}, int64(1), uint8(0), false)
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5}, int64(2), uint8(2), true)
	f.Add([]byte{30, 0, 1, 2, 3, 4, 5, 6, 7, 1, 9, 9, 4}, int64(-7), uint8(3), false)
	f.Add([]byte{}, int64(0), uint8(4), true)
	modes := []DistanceMode{DistanceAuto, DistanceExact, DistanceSampled, DistanceANF, "bogus"}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, rawMode uint8, xd bool) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0]%48), data[1:]
		}
		edges := make([]graph.Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data) && n > 0; i += 2 {
			edges = append(edges, graph.Canon(int32(int(data[i])%n), int32(int(data[i+1])%n)))
		}
		g := graph.FromEdges(n, edges)
		opt := ProfileOptions{DistanceMode: modes[int(rawMode)%len(modes)], ExactDiameter: xd, Queries: AllQueries()}
		for _, s := range []int64{seed, seed + 1} {
			if got, want := ComputeProfileCached(g, opt, s), ComputeProfileSeeded(g, opt, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d m=%d mode=%q xd=%t seed=%d: cached profile differs from ComputeProfileSeeded", g.N(), g.M(), opt.DistanceMode, xd, s)
			}
		}
	})
}
