package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgb/internal/graph"
	"pgb/internal/par"
)

// ANF is an estimator, but its error on aggregate statistics is tight:
// 64 registers put ~13% standard error on each per-node ball, and the
// serial sum over n nodes averages most of it out. The bound asserted
// here (10% on average path length, ±2 rounds on the diameter fixed
// point) is deliberately looser than observed (<2% on these graphs) so
// the test pins quality without flaking on seed choice.
func TestANFWithinErrorBoundOfExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random400", randomGraph(11, 400)},
		{"random800", randomGraph(12, 800)},
		{"path", path5()},
		{"k4", k4()},
	} {
		exact := ExactDistancesParallel(tc.g, 1, nil)
		got := ANFDistancesParallel(tc.g, rand.New(rand.NewSource(42)), 1, nil)
		if d := math.Abs(got.Diameter - exact.Diameter); d > 2 {
			t.Errorf("%s: ANF diameter %g vs exact %g (|Δ| > 2)", tc.name, got.Diameter, exact.Diameter)
		}
		if exact.AvgPath > 0 {
			rel := math.Abs(got.AvgPath-exact.AvgPath) / exact.AvgPath
			if rel > 0.10 {
				t.Errorf("%s: ANF avg path %g vs exact %g (rel err %.3f > 0.10)", tc.name, got.AvgPath, exact.AvgPath, rel)
			}
		}
		if len(got.Distribution) > 0 {
			sum := 0.0
			for _, p := range got.Distribution {
				if p < 0 {
					t.Errorf("%s: negative distribution mass %g", tc.name, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: distribution sums to %g, want 1", tc.name, sum)
			}
		}
	}
}

// The DESIGN.md §11 determinism contract: ANF results are bit-identical
// at every worker count and for every budget nesting, because the only
// random input is one rng draw taken before parallel work and all
// reductions run in pinned node order.
func TestANFParallelBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := randomGraph(seed, 300)
		want := ANFDistancesParallel(g, rand.New(rand.NewSource(42)), 1, nil)
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []*par.Budget{nil, par.NewBudget(workers - 1)} {
				got := ANFDistancesParallel(g, rand.New(rand.NewSource(42)), workers, budget)
				assertDistanceStatsEqual(t, "anf", workers, got, want)
			}
		}
	}
}

// ANF consumes exactly one Uint64 from the caller's rng — callers
// interleave it with other seeded passes, so the draw count is part of
// the reproducibility contract (even on the empty graph).
func TestANFConsumesExactlyOneDraw(t *testing.T) {
	for _, g := range []*graph.Graph{k4(), graph.FromEdges(0, nil)} {
		r := rand.New(rand.NewSource(5))
		ANFDistancesParallel(g, r, 1, nil)
		ref := rand.New(rand.NewSource(5))
		ref.Uint64()
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("ANFDistancesParallel did not consume exactly one Uint64 draw")
		}
	}
}

func TestANFEmptyGraph(t *testing.T) {
	st := ANFDistancesParallel(graph.FromEdges(0, nil), rand.New(rand.NewSource(1)), 1, nil)
	if st.Diameter != 0 || st.AvgPath != 0 || st.Distribution != nil {
		t.Fatalf("empty graph: got %+v, want zero stats", st)
	}
}

// The SWAR byte-max must agree with the obvious per-byte loop on every
// input — it is the inner operation of every ANF union.
func TestByteMaxMatchesPerByteLoop(t *testing.T) {
	ref := func(x, y uint64) uint64 {
		var out uint64
		for b := 0; b < 8; b++ {
			xb := (x >> (b * 8)) & 0xFF
			yb := (y >> (b * 8)) & 0xFF
			m := xb
			if yb > xb {
				m = yb
			}
			out |= m << (b * 8)
		}
		return out
	}
	if err := quick.Check(func(x, y uint64) bool {
		return byteMax(x, y) == ref(x, y)
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	// Edge lanes the generator may miss.
	for _, c := range [][2]uint64{
		{0, 0},
		{^uint64(0), 0},
		{0x8080808080808080, 0x7F7F7F7F7F7F7F7F},
		{0xFF00FF00FF00FF00, 0x00FF00FF00FF00FF},
	} {
		if byteMax(c[0], c[1]) != ref(c[0], c[1]) {
			t.Fatalf("byteMax(%#x, %#x) = %#x, want %#x", c[0], c[1], byteMax(c[0], c[1]), ref(c[0], c[1]))
		}
	}
}

// anfRho must stay within the 8-bit register range for any hash suffix.
func TestANFRhoRange(t *testing.T) {
	if err := quick.Check(func(w uint64) bool {
		r := anfRho(w >> 6)
		return r >= 1 && r <= 59
	}, nil); err != nil {
		t.Fatal(err)
	}
	if r := anfRho(0); r != 59 {
		t.Fatalf("anfRho(0) = %d, want 59", r)
	}
}
