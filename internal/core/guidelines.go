package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The paper's closing contribution (§I, §VII) is a set of guidelines for
// selecting a mechanism given the scenario: graph characteristics, the
// privacy requirement, and the queries the analyst cares about. This file
// encodes those guidelines two ways — a static rule set distilled from
// the paper's findings, and a data-driven recommender that replays a
// benchmark Results grid restricted to the caller's scenario.

// Scenario describes the analyst's publication setting.
type Scenario struct {
	// Nodes is the (approximate) graph size; the paper's findings split
	// around |V| = 10⁴.
	Nodes int
	// ACC is the average clustering coefficient; the findings split
	// around 0.4 ("high-ACC" social/academic graphs).
	ACC float64
	// Epsilon is the privacy requirement.
	Epsilon float64
	// Queries the analyst cares about; empty means all fifteen.
	Queries []QueryID
}

// Recommendation is one ranked suggestion with its justification.
type Recommendation struct {
	Algorithm string
	Reason    string
}

// Recommend applies the paper's guidelines (§VI takeaways) to the
// scenario, returning mechanisms in preference order. The rules are
// intentionally few and map one-to-one onto findings quoted in the
// reasons; use RecommendFromResults for a data-driven ranking.
func Recommend(s Scenario) []Recommendation {
	var recs []Recommendation
	add := func(alg, reason string) {
		for _, r := range recs {
			if r.Algorithm == alg {
				return
			}
		}
		recs = append(recs, Recommendation{Algorithm: alg, Reason: reason})
	}

	wantsCommunity := false
	wantsDegree := false
	for _, q := range s.Queries {
		switch q {
		case QCommunityDetection, QModularity:
			wantsCommunity = true
		case QDegreeDistribution, QAvgDegree, QDegreeVariance:
			wantsDegree = true
		}
	}

	// Finding: "TmF stands out as the most reliable and versatile
	// algorithm", dominating at large ε via the high-pass filter.
	if s.Epsilon >= 5 {
		add("TmF", "large privacy budget: TmF's per-cell noise shrinks and it was the paper's top performer at eps >= 5 on nearly every dataset")
	}
	// Finding: community-aware mechanisms excel on community queries at
	// mid-range budgets.
	if wantsCommunity && s.Epsilon >= 1 {
		add("PrivGraph", "community queries at moderate budget: PrivGraph's partition phase preserves community structure and modularity")
	}
	// Finding: DGG performs well on high-ACC graphs (Facebook, HepPh)
	// and at small budgets, since degrees are cheap to protect.
	if s.ACC >= 0.4 {
		add("DGG", "high clustering coefficient: DGG's BTER construction clusters similar-degree nodes, the paper's winner on social/academic graphs")
	}
	if s.Epsilon < 1 {
		add("DGG", "strict privacy: degree perturbation has sensitivity 2, so degree-based generation degrades most gracefully at small eps")
		add("DP-dK", "strict privacy: smooth-sensitivity dK noise keeps degree statistics informative when eps is small")
	}
	if wantsDegree {
		add("DP-dK", "degree-centric queries: the dK representation targets exactly these statistics")
	}
	// Finding: TmF best on large or synthetic (ER-like) graphs.
	if s.Nodes >= 10000 || s.ACC < 0.05 {
		add("TmF", "large or unclustered graph: direct matrix perturbation preserved the most structure on ER-like inputs in the paper")
	}
	// Fallback ordering for anything not covered above.
	add("TmF", "overall most reliable performer across the paper's grid")
	add("PrivGraph", "balanced mechanism when community information matters")
	add("DGG", "simple, fast baseline with strong degree fidelity")
	return recs
}

// FormatRecommendations renders the ranked suggestions.
func FormatRecommendations(s Scenario, recs []Recommendation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scenario: |V|≈%d, ACC≈%.2f, eps=%g", s.Nodes, s.ACC, s.Epsilon)
	if len(s.Queries) > 0 {
		names := make([]string, len(s.Queries))
		for i, q := range s.Queries {
			names[i] = q.String()
		}
		fmt.Fprintf(&sb, ", queries: %s", strings.Join(names, ", "))
	}
	sb.WriteString("\n\n")
	for i, r := range recs {
		fmt.Fprintf(&sb, "%d. %-10s %s\n", i+1, r.Algorithm, r.Reason)
	}
	return sb.String()
}

// RecommendFromResults ranks algorithms from a measured Results grid:
// it restricts the grid to the ε nearest the scenario's requirement and
// to the scenario's queries, then orders algorithms by total wins. This
// is the benchmark-as-a-service mode: rerun the grid on a stand-in for
// the analyst's graph and read off the ranking.
func RecommendFromResults(r *Results, s Scenario) []Recommendation {
	// nearest benchmark ε
	bestEps := r.Config.Epsilons[0]
	for _, e := range r.Config.Epsilons {
		if math.Abs(e-s.Epsilon) < math.Abs(bestEps-s.Epsilon) {
			bestEps = e
		}
	}
	queries := s.Queries
	if len(queries) == 0 {
		queries = r.Queries()
	}
	wins := tally(r, r.Config.Datasets, []float64{bestEps}, queries,
		func(string, float64, QueryID) float64 { return bestEps })[bestEps]
	type ranked struct {
		alg  string
		wins int
	}
	var rank []ranked
	for _, alg := range r.Config.Algorithms {
		rank = append(rank, ranked{alg, wins[alg]})
	}
	sort.SliceStable(rank, func(i, j int) bool { return rank[i].wins > rank[j].wins })
	recs := make([]Recommendation, 0, len(rank))
	for _, rr := range rank {
		recs = append(recs, Recommendation{
			Algorithm: rr.alg,
			Reason:    fmt.Sprintf("%d query wins at eps=%g across %d benchmark datasets", rr.wins, bestEps, len(r.Config.Datasets)),
		})
	}
	return recs
}
