package algo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/par"
)

// identity_test.go pins the generation layer's two bit-identity
// contracts (DESIGN.md §10):
//
//  1. Golden identity: for pinned (graph, eps, seed), every generator's
//     output fingerprint equals the one recorded from the serial
//     implementation BEFORE the parallel restructure. The sharded passes
//     must therefore reproduce the legacy draw sequence exactly — every
//     DP noise and sampling draw stays on the caller's rng in serial
//     order; shards only compute deterministic values with exact merges.
//  2. Worker-count invariance: GenerateWith at workers 1, 2 and 8
//     (with and without a shared par.Budget) produces that same
//     fingerprint.

type identityCase struct {
	graphName string
	eps       float64
	seed      int64
	want      uint64
}

// goldens were captured from the pre-parallelization serial generators
// (commit d5d2134) on: pp150 = gen.PlantedPartition(150, 4, 0.35, 0.02,
// seed 5); er = datasets ER at scale 0.05, seed 42.
var goldens = map[string][]identityCase{
	"DP-dK": {
		{"pp150", 1.0, 7, 0xd17feb8b8a5b3f9e},
		{"pp150", 0.5, 13, 0x73b161afda530d30},
		{"er", 1.0, 7, 0xb20daa214e10bf0e},
	},
	"TmF": {
		{"pp150", 1.0, 7, 0x3e236a209c32278e},
		{"pp150", 0.5, 13, 0x12a1e8b9888b31f4},
		{"er", 1.0, 7, 0xf17e7d4612a3e24d},
	},
	"PrivSKG": {
		{"pp150", 1.0, 7, 0xdac22bd944d99315},
		{"pp150", 0.5, 13, 0x8f974e2188209ce0},
		{"er", 1.0, 7, 0xdfa4919e973a899e},
	},
	"PrivHRG": {
		{"pp150", 1.0, 7, 0xe1fdd8f11dcf7b4f},
		{"pp150", 0.5, 13, 0x7d2e7325a81f16bb},
		{"er", 1.0, 7, 0x97a0e953ad40433a},
	},
	"PrivGraph": {
		{"pp150", 1.0, 7, 0x2af4ce3a42d1a850},
		{"pp150", 0.5, 13, 0x5d0cdcb5bc28f9ea},
		{"er", 1.0, 7, 0xb7fafe07089daf17},
	},
	"DGG": {
		{"pp150", 1.0, 7, 0x91c346d295292ab5},
		{"pp150", 0.5, 13, 0x6bb58f56578fcc8b},
		{"er", 1.0, 7, 0xb3fcdc96c50ababb},
	},
	"LDPGen": {
		{"pp150", 1.0, 7, 0xcb185f81c1e095f8},
		{"pp150", 0.5, 13, 0x0f9012d2b331fae2},
		{"er", 1.0, 7, 0x174ccb05183bd1b6},
	},
	"RNL": {
		{"pp150", 1.0, 7, 0x37ca60c91e7f3058},
		{"pp150", 0.5, 13, 0xb6990d47cab65a6d},
		{"er", 1.0, 7, 0x56f5dc624d92a39e},
	},
	"DER": {
		{"pp150", 1.0, 7, 0x24711de597f2b3b3},
		{"pp150", 0.5, 13, 0x42e5a12958e18673},
		{"er", 1.0, 7, 0x27bfb02664cfd238},
	},
}

func identityGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	spec, err := datasets.ByName("ER")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"pp150": gen.PlantedPartition(150, 4, 0.35, 0.02, rand.New(rand.NewSource(5))),
		"er":    spec.Load(0.05, 42),
	}
}

// TestGenerateGoldenIdentity: serial Generate reproduces the pre-change
// fingerprints, and GenerateWith matches them at workers 1, 2 and 8.
func TestGenerateGoldenIdentity(t *testing.T) {
	graphs := identityGraphs(t)
	//pgb:deterministic t.Run subtests are independent; goldens are compared per algorithm
	for name, cases := range goldens {
		name, cases := name, cases
		t.Run(name, func(t *testing.T) {
			a, err := core.NewAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range cases {
				g := graphs[tc.graphName]
				serial, err := a.Generate(g, tc.eps, rand.New(rand.NewSource(tc.seed)))
				if err != nil {
					t.Fatalf("%s eps=%g seed=%d: %v", tc.graphName, tc.eps, tc.seed, err)
				}
				if got := serial.Fingerprint(); got != tc.want {
					t.Errorf("%s eps=%g seed=%d: serial Generate fingerprint %#016x, golden %#016x",
						tc.graphName, tc.eps, tc.seed, got, tc.want)
				}
				for _, workers := range []int{1, 2, 8} {
					for _, budget := range []*par.Budget{nil, par.NewBudget(workers - 1)} {
						p := algo.Params{Workers: workers, Budget: budget}
						syn, err := algo.GenerateWith(a, g, tc.eps, rand.New(rand.NewSource(tc.seed)), p)
						if err != nil {
							t.Fatalf("%s eps=%g seed=%d workers=%d: %v", tc.graphName, tc.eps, tc.seed, workers, err)
						}
						if got := syn.Fingerprint(); got != tc.want {
							t.Errorf("%s eps=%g seed=%d workers=%d budget=%v: fingerprint %#016x, golden %#016x",
								tc.graphName, tc.eps, tc.seed, workers, budget != nil, got, tc.want)
						}
					}
				}
			}
		})
	}
}

// TestGenerateParallelWorkerInvarianceLarger exercises the sharded paths
// on a graph big enough that every parallel generator actually splits
// into multiple blocks, comparing workers 2 and 8 against the serial
// result (no golden needed — serial is the reference).
func TestGenerateParallelWorkerInvarianceLarger(t *testing.T) {
	g := gen.PlantedPartition(1200, 6, 0.05, 0.004, rand.New(rand.NewSource(17)))
	for _, name := range []string{"LDPGen", "PrivGraph", "PrivHRG", "DP-dK", "TmF"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := core.NewAlgorithm(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := a.Generate(g, 1, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := a.(algo.ParallelGenerator); !ok {
				t.Fatalf("%s does not implement algo.ParallelGenerator", name)
			}
			for _, workers := range []int{1, 2, 8} {
				syn, err := algo.GenerateWith(a, g, 1, rand.New(rand.NewSource(3)), algo.Params{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if syn.Fingerprint() != want.Fingerprint() {
					t.Errorf("workers=%d diverged from serial: %#016x vs %#016x",
						workers, syn.Fingerprint(), want.Fingerprint())
				}
			}
		})
	}
}

// TestGeneratorKernelBudgetNesting runs a parallel generator and a
// parallel profile computation concurrently on ONE shared two-token
// budget — generator shard workers and triangle/BFS kernel workers
// contending for the same allowance — and checks both results are
// bit-identical to their serial references. This is the nesting contract
// of DESIGN.md §2/§10: a budget only schedules, it never changes values,
// even under cross-layer contention.
func TestGeneratorKernelBudgetNesting(t *testing.T) {
	g := gen.PlantedPartition(600, 4, 0.08, 0.005, rand.New(rand.NewSource(29)))
	a, err := core.NewAlgorithm("LDPGen")
	if err != nil {
		t.Fatal(err)
	}
	serialSyn, err := a.Generate(g, 1, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	serialProf := core.ComputeProfileSeeded(g, core.ProfileOptions{Workers: 1}, 99)

	budget := par.NewBudget(2)
	done := make(chan error, 2)
	var syn *graph.Graph
	var prof *core.Profile
	go func() {
		var err error
		syn, err = algo.GenerateWith(a, g, 1, rand.New(rand.NewSource(41)), algo.Params{Workers: 4, Budget: budget})
		done <- err
	}()
	go func() {
		prof = core.ComputeProfileSeeded(g, core.ProfileOptions{Workers: 4, Budget: budget}, 99)
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if syn.Fingerprint() != serialSyn.Fingerprint() {
		t.Errorf("generation under shared budget diverged: %#016x vs %#016x",
			syn.Fingerprint(), serialSyn.Fingerprint())
	}
	if fmt.Sprintf("%+v", prof) != fmt.Sprintf("%+v", serialProf) {
		t.Error("profile under shared budget diverged from serial profile")
	}
}
