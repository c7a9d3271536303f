package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"pgb/internal/algo"
	"pgb/internal/datasets"
	"pgb/internal/graph"
	"pgb/internal/stats"
)

// VerifyDPdK reproduces Table XI of the paper's appendix: DP-dK on
// (simulated) CA-GrQC at ε ∈ {20, 2, 0.2}, reporting ground truth and the
// mean synthetic value for each verification query. reps ≤ 0 selects
// the default ten repetitions, as it does for every grid command.
func VerifyDPdK(scale float64, reps int, seed int64) (string, error) {
	reps = Config{Reps: reps}.withDefaults().Reps
	spec, err := datasets.ByName("GrQC")
	if err != nil {
		return "", err
	}
	g := spec.Load(scale, seed)
	truth := verificationRow(g, seed+1, true)
	alg, err := NewAlgorithm("DP-dK")
	if err != nil {
		return "", err
	}
	epsList := []float64{20, 2, 0.2}
	rows := make([]map[string]float64, len(epsList))
	for i, eps := range epsList {
		acc := map[string]float64{}
		for rep := 0; rep < reps; rep++ {
			genSeed := seed + int64(i*1000+rep)
			r2 := rand.New(rand.NewSource(genSeed))
			syn, err := alg.Generate(g, eps, r2, algo.Params{})
			if err != nil {
				return "", err
			}
			row := verificationRow(syn, SubSeed(genSeed, 1), false)
			for k, v := range row {
				acc[k] += v
			}
		}
		for k := range acc {
			acc[k] /= float64(reps)
		}
		rows[i] = acc
	}
	var sb strings.Builder
	sb.WriteString("Table XI — verification of DP-dK on (simulated) CA-GrQC\n")
	fmt.Fprintf(&sb, "%-14s %12s", "Query", "Truth")
	for _, e := range epsList {
		fmt.Fprintf(&sb, " %12s", fmt.Sprintf("eps=%g", e))
	}
	sb.WriteByte('\n')
	for _, q := range verificationQueries() {
		fmt.Fprintf(&sb, "%-14s %12.3f", q, truth[q])
		for i := range epsList {
			fmt.Fprintf(&sb, " %12.3f", rows[i][q])
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

func verificationQueries() []string {
	return []string{"|V|", "|E|", "d_avg", "Ass", "ACC", "Diam", "Tri", "GCC", "Mod"}
}

// verificationRow answers the appendix's query subset through the
// registry: one profile computation restricted to the needed passes,
// scalars extracted per spec. Table XI compares absolute diameters, so
// Diam is not the profile's estimate but the exact iFUB diameter of the
// largest component; iFUB draws its start from the RNG, but its value
// does not depend on it. The truth graph's profile is cached; synthetic
// one-shot graphs skip the cache.
func verificationRow(g *graph.Graph, seed int64, cache bool) map[string]float64 {
	qs, err := ParseQueries(verificationQueries())
	if err != nil {
		panic(err) // verification symbols are built-ins; unreachable
	}
	qs = slices.DeleteFunc(qs, func(q QueryID) bool { return q == QDiameter })
	opt := ProfileOptions{Queries: qs}
	var prof *Profile
	if cache {
		prof = ComputeProfileCached(g, opt, seed)
	} else {
		prof = ComputeProfileSeeded(g, opt, seed)
	}
	row := make(map[string]float64, len(qs))
	for _, q := range qs {
		spec, _ := QuerySpecOf(q)
		if v, ok := spec.Scalar(prof); ok {
			row[spec.Symbol] = v
		}
	}
	row[QDiameter.String()] = float64(stats.ExactDiameter(g, rand.New(rand.NewSource(seed))))
	return row
}

// VerifyTmF reproduces Figs. 3 and 4: TmF on (simulated) Facebook across
// the ε grid, reporting KL divergence of the degree distribution and NMI
// of community detection.
func VerifyTmF(scale float64, reps int, seed int64) (string, error) {
	return runSeries(Config{
		Algorithms: []string{"TmF"},
		Datasets:   []string{"Facebook"},
		Queries:    []QueryID{QDegreeDistribution, QCommunityDetection},
		Reps:       reps,
		Scale:      scale,
		Seed:       seed,
	}, "Fig. 3/4 — TmF verification on (simulated) Facebook")
}

// VerifyPrivSKG reproduces Figs. 5 and 6: PrivSKG on (simulated) CA-GrQC,
// reporting the degree-distribution and clustering-by-degree curves of
// original vs generated graphs at ε = 0.2 (the paper's setting).
func VerifyPrivSKG(scale float64, seed int64) (string, error) {
	spec, err := datasets.ByName("GrQC")
	if err != nil {
		return "", err
	}
	g := spec.Load(scale, seed)
	alg, err := NewAlgorithm("PrivSKG")
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed + 5))
	syn, err := alg.Generate(g, 0.2, rng, algo.Params{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Fig. 5 — degree distribution (node counts per degree), original vs PrivSKG\n")
	sb.WriteString(degreeHistogramTable(g, syn))
	sb.WriteString("\nFig. 6 — average clustering coefficient by degree, original vs PrivSKG\n")
	sb.WriteString(clusteringByDegreeTable(g, syn))
	return sb.String(), nil
}

func degreeHistogramTable(a, b *graph.Graph) string {
	ha := degreeCounts(a)
	hb := degreeCounts(b)
	// log-spaced degree buckets 1,2,4,8,...
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %12s %12s\n", "degree", "original", "generated")
	for lo := 1; lo <= max(len(ha), len(hb)); lo *= 2 {
		hi := lo * 2
		ca, cb := bucketSum(ha, lo, hi), bucketSum(hb, lo, hi)
		if ca == 0 && cb == 0 {
			continue
		}
		fmt.Fprintf(&sb, "[%4d,%4d) %12d %12d\n", lo, hi, ca, cb)
	}
	return sb.String()
}

func clusteringByDegreeTable(a, b *graph.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %12s %12s\n", "degree", "original", "generated")
	ca := clusteringByDegree(a)
	cb := clusteringByDegree(b)
	keys := map[int]struct{}{}
	for d := range ca {
		keys[d] = struct{}{}
	}
	for d := range cb {
		keys[d] = struct{}{}
	}
	var ds []int
	for d := range keys {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	for lo := 2; lo <= 4096; lo *= 2 {
		hi := lo * 2
		va, na := 0.0, 0
		vb, nb := 0.0, 0
		for _, d := range ds {
			if d >= lo && d < hi {
				if v, ok := ca[d]; ok {
					va += v
					na++
				}
				if v, ok := cb[d]; ok {
					vb += v
					nb++
				}
			}
		}
		if na == 0 && nb == 0 {
			continue
		}
		fmt.Fprintf(&sb, "[%4d,%4d) %12.4f %12.4f\n", lo, hi, safeDiv(va, na), safeDiv(vb, nb))
	}
	return sb.String()
}

func safeDiv(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

func clusteringByDegree(g *graph.Graph) map[int]float64 {
	cc := stats.LocalClusteringParallel(g, 1, nil)
	sum := map[int]float64{}
	cnt := map[int]int{}
	for u := 0; u < g.N(); u++ {
		d := g.Degree(int32(u))
		if d < 2 {
			continue
		}
		sum[d] += cc[u]
		cnt[d]++
	}
	out := make(map[int]float64, len(sum))
	for d, s := range sum {
		out[d] = s / float64(cnt[d])
	}
	return out
}

func degreeCounts(g *graph.Graph) []int {
	h := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.N(); u++ {
		h[g.Degree(int32(u))]++
	}
	return h
}

func bucketSum(h []int, lo, hi int) int {
	s := 0
	for d := lo; d < hi && d < len(h); d++ {
		s += h[d]
	}
	return s
}

// Fig7 reproduces the appendix DER comparison: TmF vs PrivGraph vs DER on
// (simulated) Facebook and Wiki-Vote, reporting RE of the clustering
// coefficient and of the diameter across the ε grid. Fig. 7's axes fill
// the algorithm, dataset and query axes cfg leaves empty; every other
// field runs as given.
func Fig7(cfg Config) (string, error) {
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = []string{"TmF", "PrivGraph", "DER"}
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = []string{"Facebook", "Wiki"}
	}
	if len(cfg.Queries) == 0 {
		cfg.Queries = []QueryID{QAvgClustering, QDiameter}
	}
	return runSeries(cfg, "Fig. 7 — DER vs TmF vs PrivGraph")
}

// runSeries runs cfg on the grid engine and renders every (query,
// dataset) series of it under title.
func runSeries(cfg Config, title string) (string, error) {
	res, err := Run(cfg)
	if err != nil {
		return "", err
	}
	return res.FormatSeries(title, res.Queries(), res.Config.Datasets), nil
}
