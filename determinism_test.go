package pgb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pgb"
	"pgb/internal/core"
)

// determinism_test.go pins the Generate seeding contract documented on
// pgb.Generate: a call's result is a pure function of (algorithm, graph,
// eps, seed), with a private RNG per call — so concurrent callers (the
// pgb serve synchronous endpoints) can never perturb each other's
// output.

// generateAlgorithms is every name Generate accepts: the six benchmarked
// mechanisms plus the DER appendix baseline.
func generateAlgorithms() []string {
	return append(pgb.Algorithms(), "DER")
}

// TestGenerateDeterministicPerAlgorithm: repeated serial calls at a
// fixed seed are bit-identical for every algorithm.
func TestGenerateDeterministicPerAlgorithm(t *testing.T) {
	g, err := pgb.Load(pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range generateAlgorithms() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			a, err := pgb.Generate(alg, g, 1.0, 7)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			b, err := pgb.Generate(alg, g, 1.0, 7)
			if err != nil {
				t.Fatalf("Generate (repeat): %v", err)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("two Generate(%s, seed 7) calls differ: %016x vs %016x",
					alg, a.Fingerprint(), b.Fingerprint())
			}
			c, err := pgb.Generate(alg, g, 1.0, 8)
			if err != nil {
				t.Fatalf("Generate (seed 8): %v", err)
			}
			if c.Fingerprint() == a.Fingerprint() && a.M() > 0 {
				t.Logf("note: %s produced identical graphs for seeds 7 and 8 (legal but suspicious)", alg)
			}
		})
	}
}

// TestGenerateMatchesSerialReference: pgb.Generate dispatches the heavy
// generators through their sharded parallel path at GOMAXPROCS workers
// (DESIGN.md §10); the seeding contract demands this never shows — the
// result must equal the fully serial implementation draw for draw. This
// pins the contract for every algorithm against the serial reference.
func TestGenerateMatchesSerialReference(t *testing.T) {
	g, err := pgb.Load(pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range generateAlgorithms() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			got, err := pgb.Generate(alg, g, 1.0, 19)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewAlgorithm(alg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Generate(g, 1.0, rand.New(rand.NewSource(19)))
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("pgb.Generate(%s) diverged from the serial reference: %016x vs %016x",
					alg, got.Fingerprint(), want.Fingerprint())
			}
		})
	}
}

// TestGenerateConcurrentNoSharedRNG: all algorithms generating
// concurrently — several instances each, like simultaneous server
// requests — must reproduce their serial results exactly. A shared or
// leaked RNG stream would make at least one concurrent result diverge.
func TestGenerateConcurrentNoSharedRNG(t *testing.T) {
	g, err := pgb.Load(pgb.Source{Dataset: "ER", Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	algs := generateAlgorithms()

	serial := make(map[string]uint64, len(algs))
	for _, alg := range algs {
		syn, err := pgb.Generate(alg, g, 1.0, 11)
		if err != nil {
			t.Fatalf("serial Generate(%s): %v", alg, err)
		}
		serial[alg] = syn.Fingerprint()
	}

	const instances = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(algs)*instances)
	for _, alg := range algs {
		for i := 0; i < instances; i++ {
			wg.Add(1)
			go func(alg string) {
				defer wg.Done()
				syn, err := pgb.Generate(alg, g, 1.0, 11)
				if err != nil {
					errs <- fmt.Errorf("concurrent Generate(%s): %w", alg, err)
					return
				}
				if syn.Fingerprint() != serial[alg] {
					errs <- fmt.Errorf("concurrent Generate(%s) diverged from serial result: %016x vs %016x",
						alg, syn.Fingerprint(), serial[alg])
				}
			}(alg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
