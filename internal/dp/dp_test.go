package dp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestLaplaceMoments(t *testing.T) {
	r := rng()
	const b = 2.0
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(r, b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean = %g, want ~0", mean)
	}
	// Var(Lap(b)) = 2b² = 8
	if math.Abs(variance-8) > 0.5 {
		t.Fatalf("Laplace variance = %g, want ~8", variance)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	if Laplace(rng(), 0) != 0 {
		t.Fatal("zero scale should give the degenerate noiseless 0")
	}
}

func TestLaplacePanicsOnNegativeScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative scale")
		}
	}()
	Laplace(rng(), -1)
}

func TestLaplaceMechanismCentersOnValue(t *testing.T) {
	r := rng()
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += LaplaceMechanism(r, 10, 1, 2)
	}
	if got := sum / n; math.Abs(got-10) > 0.05 {
		t.Fatalf("mechanism mean = %g, want ~10", got)
	}
}

func TestLaplaceMechanismPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eps <= 0")
		}
	}()
	LaplaceMechanism(rng(), 1, 1, 0)
}

func TestLaplaceVector(t *testing.T) {
	r := rng()
	in := []float64{1, 2, 3}
	out := LaplaceVector(r, in, 1, 100) // tiny noise at eps=100
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1 {
			t.Fatalf("out[%d] = %g too far from %g at eps=100", i, out[i], in[i])
		}
	}
	// input unchanged
	if in[0] != 1 || in[1] != 2 || in[2] != 3 {
		t.Fatal("input mutated")
	}
}

// LaplaceVectorInto must reproduce LaplaceVector's draws exactly on a
// fixed rng stream, with and without aliasing dst to values.
func TestLaplaceVectorIntoMatchesLaplaceVector(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5}
	want := LaplaceVector(rand.New(rand.NewSource(9)), in, 2, 0.7)
	dst := make([]float64, len(in))
	got := LaplaceVectorInto(rand.New(rand.NewSource(9)), dst, in, 2, 0.7)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %g != %g", i, got[i], want[i])
		}
	}
	// in-place: dst == values
	inPlace := append([]float64(nil), in...)
	LaplaceVectorInto(rand.New(rand.NewSource(9)), inPlace, inPlace, 2, 0.7)
	for i := range want {
		if inPlace[i] != want[i] {
			t.Fatalf("in-place entry %d: %g != %g", i, inPlace[i], want[i])
		}
	}
}

func TestLaplaceVectorIntoPanics(t *testing.T) {
	cases := []func(){
		func() { LaplaceVectorInto(rng(), make([]float64, 1), []float64{1, 2}, 1, 1) },
		func() { LaplaceVectorInto(rng(), make([]float64, 2), []float64{1, 2}, 1, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// randomizedResponse is Warner's mechanism written directly on
// FlipProbability: the bit is flipped with probability 1/(e^ε+1).
func randomizedResponse(r *rand.Rand, bit bool, eps float64) bool {
	if r.Float64() < FlipProbability(eps) {
		return !bit
	}
	return bit
}

func TestRandomizedResponseKeepProbability(t *testing.T) {
	r := rng()
	const eps = 1.0
	const n = 100000
	kept := 0
	for i := 0; i < n; i++ {
		if randomizedResponse(r, true, eps) {
			kept++
		}
	}
	want := math.Exp(eps) / (math.Exp(eps) + 1)
	if got := float64(kept) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("keep rate = %g, want %g", got, want)
	}
}

func TestFlipProbability(t *testing.T) {
	if p := FlipProbability(0.0001); math.Abs(p-0.5) > 0.001 {
		t.Fatalf("flip prob at eps~0 = %g, want ~0.5", p)
	}
	if p := FlipProbability(10); p > 0.001 {
		t.Fatalf("flip prob at eps=10 = %g, want ~0", p)
	}
}

func TestSmoothSensitivityConstant(t *testing.T) {
	// constant local sensitivity: smooth sensitivity equals it
	s := SmoothSensitivity(0.5, 100, func(int) float64 { return 3 })
	if s != 3 {
		t.Fatalf("smooth sensitivity = %g, want 3", s)
	}
}

func TestSmoothSensitivityGrowth(t *testing.T) {
	// LS(d) = d: maximum of d·e^{-βd} is at d = 1/β
	beta := 0.1
	s := SmoothSensitivity(beta, 1000, func(d int) float64 { return float64(d) })
	want := 10 * math.Exp(-1) // d = 10
	if math.Abs(s-want) > 0.5 {
		t.Fatalf("smooth sensitivity = %g, want ~%g", s, want)
	}
}

func TestBeta(t *testing.T) {
	b := Beta(1, 0.01)
	want := 1 / (2 * math.Log(200))
	if math.Abs(b-want) > 1e-12 {
		t.Fatalf("Beta = %g, want %g", b, want)
	}
}

func TestBetaPanicsOnBadDelta(t *testing.T) {
	for _, d := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for delta=%g", d)
				}
			}()
			Beta(1, d)
		}()
	}
}

func TestAccountantEnforcesBudget(t *testing.T) {
	a := NewAccountant(1.0)
	if err := a.Spend(0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.01); err == nil {
		t.Fatal("over-spend accepted")
	}
	if a.Spent() != 1.0 {
		t.Fatalf("spent = %g", a.Spent())
	}
	if a.Remaining() != 0 {
		t.Fatalf("remaining = %g", a.Remaining())
	}
}

func TestAccountantRejectsNonPositive(t *testing.T) {
	a := NewAccountant(1)
	if err := a.Spend(0); err == nil {
		t.Fatal("zero spend accepted")
	}
	if err := a.Spend(-1); err == nil {
		t.Fatal("negative spend accepted")
	}
	// NaN and infinite spends fail closed: under NaN both the
	// non-positive test and the over-spend test compare false.
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := a.Spend(eps); err == nil {
			t.Errorf("spend of %g accepted", eps)
		}
		if err := NewAccountant(eps).Spend(eps); err == nil {
			t.Errorf("spend of %g against a budget of %g accepted", eps, eps)
		}
	}
}

func TestCheckEpsilon(t *testing.T) {
	for _, eps := range []float64{1e-9, 0.1, 1, 1e6} {
		if err := CheckEpsilon(eps); err != nil {
			t.Errorf("CheckEpsilon(%g) = %v", eps, err)
		}
	}
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckEpsilon(eps); err == nil {
			t.Errorf("CheckEpsilon(%g) accepted", eps)
		}
	}
}

func TestAccountantFloatBoundary(t *testing.T) {
	a := NewAccountant(1)
	for i := 0; i < 3; i++ {
		if err := a.Spend(1.0 / 3); err != nil {
			t.Fatalf("split spend %d failed: %v", i, err)
		}
	}
}

// property: accountant never reports Spent > Total after any sequence of
// successful spends.
func TestQuickAccountantInvariant(t *testing.T) {
	f := func(parts []float64) bool {
		a := NewAccountant(1)
		for _, p := range parts {
			_ = a.Spend(math.Abs(p))
		}
		return a.Spent() <= a.Total()*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// property: smooth sensitivity upper-bounds LS(0) for any damping.
func TestQuickSmoothDominatesLocal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ls0 := r.Float64() * 10
		beta := r.Float64() + 0.01
		s := SmoothSensitivity(beta, 50, func(d int) float64 {
			return ls0 + float64(d)*r.Float64()
		})
		return s >= ls0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Empirical DP check for randomized response: for every output bit b and
// neighboring inputs x, x', the probability ratio P[M(x)=b]/P[M(x')=b]
// must not exceed e^ε (within sampling error). This is the definitional
// inequality, tested directly.
func TestRandomizedResponseDPInequality(t *testing.T) {
	r := rng()
	const eps = 1.0
	const n = 400000
	count := func(in bool) (trueOut float64) {
		c := 0
		for i := 0; i < n; i++ {
			if randomizedResponse(r, in, eps) {
				c++
			}
		}
		return float64(c) / n
	}
	pTrueGivenTrue := count(true)
	pTrueGivenFalse := count(false)
	bound := math.Exp(eps) * 1.05 // 5% sampling slack
	for _, ratio := range []float64{
		pTrueGivenTrue / pTrueGivenFalse,
		pTrueGivenFalse / pTrueGivenTrue,
		(1 - pTrueGivenTrue) / (1 - pTrueGivenFalse),
		(1 - pTrueGivenFalse) / (1 - pTrueGivenTrue),
	} {
		if ratio > bound {
			t.Fatalf("DP inequality violated: ratio %g > e^eps %g", ratio, math.Exp(eps))
		}
	}
}

// Empirical DP check for the Laplace mechanism on a counting query:
// discretize the output and verify the density ratio bound between
// neighboring values (sensitivity 1).
func TestLaplaceMechanismDPInequality(t *testing.T) {
	r := rng()
	const eps = 0.8
	const n = 500000
	hist := func(value float64) map[int]float64 {
		h := map[int]float64{}
		for i := 0; i < n; i++ {
			b := int(math.Floor(LaplaceMechanism(r, value, 1, eps)))
			h[b]++
		}
		for k := range h {
			h[k] /= n
		}
		return h
	}
	h0 := hist(10) // neighboring databases: counts 10 and 11
	h1 := hist(11)
	bound := math.Exp(eps) * 1.25 // discretization + sampling slack
	//pgb:deterministic each bin's ratio bound is checked independently
	for b, p0 := range h0 {
		p1 := h1[b]
		if p0 < 0.01 || p1 < 0.01 {
			continue // skip low-mass bins where sampling error dominates
		}
		if p0/p1 > bound || p1/p0 > bound {
			t.Fatalf("bin %d: ratio %g exceeds e^eps %g", b, math.Max(p0/p1, p1/p0), math.Exp(eps))
		}
	}
}
