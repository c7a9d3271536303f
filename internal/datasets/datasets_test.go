package datasets

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// spec looks a dataset up by name, failing the test if it is unknown.
func spec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllHasEightInPaperOrder(t *testing.T) {
	want := []string{"Minnesota", "Facebook", "Wiki", "HepPh", "Poli", "Gnutella", "ER", "BA"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("datasets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dataset[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Facebook")
	if err != nil || s.Name != "Facebook" {
		t.Fatalf("ByName: %v %v", s, err)
	}
	if _, err := ByName("GrQC"); err != nil {
		t.Fatal("GrQC (verification dataset) should be addressable")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadScalesSizes(t *testing.T) {
	s := spec(t, "ER")
	g := s.Load(0.1, 1)
	if math.Abs(float64(g.N())-0.1*float64(s.PaperNodes)) > 2 {
		t.Fatalf("scaled n = %d", g.N())
	}
	if math.Abs(float64(g.M())-0.1*float64(s.PaperEdges)) > 0.02*float64(s.PaperEdges) {
		t.Fatalf("scaled m = %d", g.M())
	}
}

func TestLoadClampsBadScale(t *testing.T) {
	s := spec(t, "BA")
	g := s.Load(-1, 1) // invalid → full size
	if g.N() != s.PaperNodes {
		t.Fatalf("bad scale: n = %d, want %d", g.N(), s.PaperNodes)
	}
}

// A NaN scale is out of range like any other: it means full size, and
// it must never reach a store key (where "NaN" would be a key of its
// own) or a generated size.
func TestNaNScaleMeansFullSize(t *testing.T) {
	nan := math.NaN()
	if got := NormalizeScale(nan); got != 1 {
		t.Fatalf("NormalizeScale(NaN) = %g, want 1", got)
	}
	for _, scale := range []float64{nan, math.Inf(1), math.Inf(-1), -1, 0, 2} {
		if ref := RefFor("Minnesota", scale, 1); ref != RefFor("Minnesota", 1, 1) {
			t.Fatalf("RefFor(scale %g) = %s, want the scale-1 key %s", scale, ref.Key(), RefFor("Minnesota", 1, 1).Key())
		}
	}
	s := spec(t, "Minnesota")
	if got, want := s.Load(nan, 1).Fingerprint(), s.Load(1, 1).Fingerprint(); got != want {
		t.Fatalf("Load(NaN) fingerprint %016x, want the scale-1 fingerprint %016x", got, want)
	}
}

func TestLoadDeterministic(t *testing.T) {
	// Full structural identity, not just sizes: a map-iteration-order
	// bug once made BA emit a different edge set per load at equal N/M,
	// which broke checkpoint-resume reproducibility.
	for _, s := range All() {
		a := s.Load(0.05, 9)
		b := s.Load(0.05, 9)
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("%s: non-deterministic load", s.Name)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%s: same sizes but different edge sets across loads", s.Name)
		}
	}
}

func TestAllValidAndSized(t *testing.T) {
	for _, s := range All() {
		g := s.Load(0.1, 3)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		// edge count within 25% of the scaled target
		target := 0.1 * float64(s.PaperEdges)
		if math.Abs(float64(g.M())-target) > 0.25*target {
			t.Fatalf("%s: m = %d, target %g", s.Name, g.M(), target)
		}
	}
}

// The benchmark's findings hinge on the ACC ordering of the stand-ins:
// social/academic high, financial mid, traffic/technology/synthetic low.
func TestACCOrderingPreserved(t *testing.T) {
	accOf := func(name string) float64 {
		s := spec(t, name)
		return Summarize(s, s.Load(0.25, 7)).ACC
	}
	fb, hep := accOf("Facebook"), accOf("HepPh")
	poli := accOf("Poli")
	minn, gnut := accOf("Minnesota"), accOf("Gnutella")
	if !(fb >= 0.35 && hep >= 0.35) {
		t.Fatalf("social/academic ACC too low: fb=%g hep=%g", fb, hep)
	}
	if !(poli >= 0.2 && poli <= 0.55) {
		t.Fatalf("poli ACC = %g, want mid-range", poli)
	}
	if !(minn <= 0.08 && gnut <= 0.08) {
		t.Fatalf("traffic/tech ACC too high: minn=%g gnut=%g", minn, gnut)
	}
	if !(fb > poli && poli > minn) {
		t.Fatalf("ACC ordering violated: fb=%g poli=%g minn=%g", fb, poli, minn)
	}
}

func TestSummarize(t *testing.T) {
	s := spec(t, "ER")
	g := s.Load(0.05, 1)
	sum := Summarize(s, g)
	if sum.Nodes != g.N() || sum.Edges != g.M() || sum.Type != "Synthetic" {
		t.Fatalf("summary %+v", sum)
	}
}

func TestSortedTypesCoversSevenDomains(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		seen[s.Type] = true
	}
	if len(seen) != 7 {
		t.Fatalf("types = %v, want 7 domains", seen)
	}
}

func TestGrQCStatsNearPaper(t *testing.T) {
	s := spec(t, "GrQC")
	g := s.Load(0.25, 5)
	sum := Summarize(s, g)
	if sum.ACC < 0.3 {
		t.Fatalf("GrQC ACC = %g, want high (paper 0.53)", sum.ACC)
	}
}

// TestPaperColumnsGolden pins the published Table VI columns of every
// spec — name, |V|, |E|, ACC and type, in All() order, then GrQC — so a
// transcription slip in the table fails. testdata/paper.golden was
// captured from the per-dataset constructors the table replaced.
func TestPaperColumnsGolden(t *testing.T) {
	var sb strings.Builder
	for _, s := range append(All(), spec(t, "GrQC")) {
		fmt.Fprintf(&sb, "%-10s %6d %7d %-7g %s\n", s.Name, s.PaperNodes, s.PaperEdges, s.PaperACC, s.Type)
	}
	want, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("paper columns drifted from testdata/paper.golden:\n%s\nwant:\n%s", got, want)
	}
}
