package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// BestCounts7 implements Definition 5: for every (dataset, ε) case, count
// per algorithm how many of the fifteen queries it wins (smallest error,
// or largest NMI for Q12). Returns counts[eps][dataset][algorithm].
func (r *Results) BestCounts7() map[float64]map[string]map[string]int {
	type epsDataset struct {
		eps float64
		ds  string
	}
	counts := tally(r, distinct(r.Config.Datasets), distinct(r.Config.Epsilons), r.Queries(),
		func(ds string, eps float64, _ QueryID) epsDataset { return epsDataset{eps, ds} })
	out := make(map[float64]map[string]map[string]int)
	for _, eps := range r.Config.Epsilons {
		out[eps] = make(map[string]map[string]int)
		for _, ds := range r.Config.Datasets {
			out[eps][ds] = counts[epsDataset{eps, ds}]
		}
	}
	return out
}

// BestCounts12 implements Definition 6: for every query, count per
// algorithm how many (dataset, ε) cases it wins.
// Returns counts[query][algorithm].
func (r *Results) BestCounts12() map[QueryID]map[string]int {
	return tally(r, r.Config.Datasets, r.Config.Epsilons, distinct(r.Queries()),
		func(_ string, _ float64, q QueryID) QueryID { return q })
}

// tally is the counting behind Definitions 5 and 6 and every reading
// built on them: it credits the winners of each (dataset, ε, query) case
// drawn from the given axes to the bucket key names for that case, and
// returns counts[bucket][algorithm] with every algorithm present. An
// axis value listed twice is counted twice; callers whose bucket is an
// axis pass it through distinct, so a repeated bucket is one bucket.
func tally[K comparable](r *Results, dss []string, epss []float64, qs []QueryID, key func(ds string, eps float64, q QueryID) K) map[K]map[string]int {
	idx := r.index()
	out := make(map[K]map[string]int)
	for _, ds := range dss {
		for _, eps := range epss {
			for _, q := range qs {
				k := key(ds, eps, q)
				if out[k] == nil {
					out[k] = make(map[string]int, len(r.Config.Algorithms))
					for _, alg := range r.Config.Algorithms {
						out[k][alg] = 0
					}
				}
				for _, w := range r.winners(idx, ds, eps, q) {
					out[k][w]++
				}
			}
		}
	}
	return out
}

// distinct returns the values of xs without repeats, in ascending order.
func distinct[T cmp.Ordered](xs []T) []T {
	return slices.Compact(slices.Sorted(slices.Values(xs)))
}

// cellIndex finds a run's cells by their (algorithm, dataset, ε).
type cellIndex map[cellKey]*CellResult

func (r *Results) index() cellIndex {
	idx := make(cellIndex, len(r.Cells))
	for i := range r.Cells {
		c := &r.Cells[i]
		idx[cellKey{c.Algorithm, c.Dataset, c.Epsilon}] = c
	}
	return idx
}

// get returns the (alg, ds, eps) cell; nil when it is absent or failed.
func (idx cellIndex) get(alg, ds string, eps float64) *CellResult {
	if c := idx[cellKey{alg, ds, eps}]; c != nil && c.Err == nil {
		return c
	}
	return nil
}

// value is the mean error the (alg, ds, eps) cell recorded for q; false
// when the cell is absent, failed, or did not evaluate q.
func (idx cellIndex) value(alg, ds string, eps float64, q QueryID) (float64, bool) {
	c := idx.get(alg, ds, eps)
	if c == nil {
		return 0, false
	}
	return c.ErrorFor(q)
}

// mean averages f over the (alg, ds) cells of the given ε grid that
// succeeded — a Table IX/X entry; false when none did.
func (idx cellIndex) mean(alg, ds string, epsilons []float64, f func(*CellResult) float64) (float64, bool) {
	sum, n := 0.0, 0
	for _, eps := range epsilons {
		if c := idx.get(alg, ds, eps); c != nil {
			sum += f(c)
			n++
		}
	}
	return sum / float64(n), n > 0
}

// winners returns every algorithm achieving the best score on query q for
// the given case. Ties all count — matching the paper's Definition 5,
// whose published rows sum to more than 15 when several algorithms hit
// zero error on the same query (e.g. |V| in Table XII).
func (r *Results) winners(idx cellIndex, ds string, eps float64, q QueryID) []string {
	higherBetter := q.HigherBetter()
	bestVal := math.Inf(1)
	if higherBetter {
		bestVal = math.Inf(-1)
	}
	var best []string
	for _, alg := range r.Config.Algorithms {
		v, ok := idx.value(alg, ds, eps, q)
		if !ok || math.IsNaN(v) {
			continue
		}
		switch {
		case (higherBetter && v > bestVal+1e-12) || (!higherBetter && v < bestVal-1e-12):
			bestVal = v
			best = best[:0]
			best = append(best, alg)
		case math.Abs(v-bestVal) <= 1e-12:
			best = append(best, alg)
		}
	}
	return best
}

// colMax returns the best mark of Tables VII and XII: whether count c is
// the largest any algorithm has in column col of counts[col][algorithm],
// and not 0.
func colMax[K comparable](cols []K, algs []string, counts map[K]map[string]int) func(col K, c int) bool {
	top := make(map[K]int, len(cols))
	for _, col := range cols {
		for _, alg := range algs {
			top[col] = max(top[col], counts[col][alg])
		}
	}
	return func(col K, c int) bool { return c > 0 && c == top[col] }
}

// FormatTable7 renders Table VII: per ε block, rows are algorithms,
// columns datasets, entries the Definition-5 best counts with the column
// maximum marked by '*'.
func (r *Results) FormatTable7() string {
	counts := r.BestCounts7()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table VII — best-performance counts (out of %d queries)\n", len(r.Queries()))
	header := fmt.Sprintf("%-5s %-10s", "eps", "Algorithm")
	for _, ds := range r.Config.Datasets {
		header += fmt.Sprintf(" %9s", ds)
	}
	sb.WriteString(header + "\n")
	for _, e := range r.sortedEpsilons() {
		best := colMax(r.Config.Datasets, r.Config.Algorithms, counts[e])
		for i, alg := range r.Config.Algorithms {
			label := ""
			if i == 0 {
				label = fmt.Sprintf("%g", e)
			}
			fmt.Fprintf(&sb, "%-5s %-10s", label, alg)
			for _, ds := range r.Config.Datasets {
				c := counts[e][ds][alg]
				fmt.Fprintf(&sb, " %8d%s", c, mark(best(ds, c)))
			}
			sb.WriteByte('\n')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatTable12 renders Table XII: rows are algorithms, columns queries,
// entries the Definition-6 best counts over all (dataset, ε) cases.
func (r *Results) FormatTable12() string {
	counts := r.BestCounts12()
	var sb strings.Builder
	cases := len(r.Config.Datasets) * len(r.Config.Epsilons)
	fmt.Fprintf(&sb, "Table XII — per-query best counts (out of %d cases)\n", cases)
	fmt.Fprintf(&sb, "%-10s", "Algorithm")
	for _, q := range r.Queries() {
		fmt.Fprintf(&sb, " %8s", q.String())
	}
	sb.WriteByte('\n')
	best := colMax(r.Queries(), r.Config.Algorithms, counts)
	for _, alg := range r.Config.Algorithms {
		fmt.Fprintf(&sb, "%-10s", alg)
		for _, q := range r.Queries() {
			c := counts[q][alg]
			fmt.Fprintf(&sb, " %7d%s", c, mark(best(q, c)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// mark is the text tables' best mark.
func mark(best bool) string {
	if best {
		return "*"
	}
	return " "
}

// FormatTable9 renders Table IX: mean generation seconds per algorithm ×
// dataset, averaged over the ε grid.
func (r *Results) FormatTable9() string {
	return r.formatResource("Table IX — generation time (seconds)", func(c *CellResult) float64 { return c.GenSeconds }, "%10.2f")
}

// FormatTable10 renders Table X: mean heap allocation per algorithm ×
// dataset in megabytes. Run with Workers = 1 for clean numbers.
func (r *Results) FormatTable10() string {
	return r.formatResource("Table X — memory consumption (MB allocated)", func(c *CellResult) float64 { return c.GenBytes / (1 << 20) }, "%10.1f")
}

func (r *Results) formatResource(title string, f func(*CellResult) float64, cellFmt string) string {
	idx := r.index()
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-10s", "Graph")
	for _, alg := range r.Config.Algorithms {
		fmt.Fprintf(&sb, " %10s", alg)
	}
	sb.WriteByte('\n')
	for _, ds := range r.Config.Datasets {
		fmt.Fprintf(&sb, "%-10s", ds)
		for _, alg := range r.Config.Algorithms {
			if v, ok := idx.mean(alg, ds, r.Config.Epsilons, f); ok {
				fmt.Fprintf(&sb, " "+cellFmt, v)
			} else {
				fmt.Fprintf(&sb, " %10s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatTable8 renders Table VIII: the theoretical complexity of each
// benchmarked mechanism.
func FormatTable8() string {
	var sb strings.Builder
	sb.WriteString("Table VIII — time and space complexity\n")
	fmt.Fprintf(&sb, "%-10s %-14s %-14s\n", "Algorithm", "Time", "Space")
	for _, m := range mechanisms[:benchmarked] {
		fmt.Fprintf(&sb, "%-10s %-14s %-14s\n", m.name, m.time, m.space)
	}
	return sb.String()
}

// FormatDatasets renders the Table VI analogue for the generated
// stand-ins: target (paper) vs generated statistics.
func (r *Results) FormatDatasets() string {
	var sb strings.Builder
	sb.WriteString("Table VI — datasets (paper target vs generated stand-in)\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %8s   %-10s\n", "Graph", "|V|", "|E|", "ACC", "Type")
	for _, ds := range r.Config.Datasets {
		s, ok := r.DatasetSummaries[ds]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "%-10s %10d %10d %8.4f   %-10s\n", s.Name, s.Nodes, s.Edges, s.ACC, s.Type)
	}
	return sb.String()
}

// Fig2Queries returns the five queries shown in Fig. 2 of the paper.
func Fig2Queries() []QueryID {
	return []QueryID{QTriangles, QDegreeDistribution, QDiameter, QCommunityDetection, QEigenvectorCentrality}
}

// Fig2Datasets returns the four graphs shown in Fig. 2.
func Fig2Datasets() []string { return []string{"Facebook", "HepPh", "Gnutella", "ER"} }

// FormatFig2 renders the Fig. 2 error-vs-ε series.
func (r *Results) FormatFig2() string {
	return r.FormatSeries("Fig. 2 — error vs privacy budget", Fig2Queries(), Fig2Datasets())
}

// FormatSeries renders error-vs-ε series under title: one block per
// (query, dataset) pair the run covers, one row per algorithm, "-" where
// a cell failed or did not evaluate the query. The row labels are ten
// characters wide, wider only when an algorithm label needs it.
func (r *Results) FormatSeries(title string, queries []QueryID, datasets []string) string {
	idx := r.index()
	width := 10
	for _, alg := range r.Config.Algorithms {
		width = max(width, len(alg))
	}
	eps := r.sortedEpsilons()
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for _, q := range queries {
		for _, ds := range datasets {
			if !slices.Contains(r.Config.Datasets, ds) {
				continue
			}
			fmt.Fprintf(&sb, "\n[%s (%s) on %s]\n%-*s", q.String(), q.Metric(), ds, width, "eps:")
			for _, e := range eps {
				fmt.Fprintf(&sb, " %9g", e)
			}
			sb.WriteByte('\n')
			for _, alg := range r.Config.Algorithms {
				fmt.Fprintf(&sb, "%-*s", width, alg)
				for _, e := range eps {
					if v, ok := idx.value(alg, ds, e, q); ok {
						fmt.Fprintf(&sb, " %9.4f", v)
					} else {
						fmt.Fprintf(&sb, " %9s", "-")
					}
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// sortedEpsilons returns the run's privacy budgets in ascending order.
func (r *Results) sortedEpsilons() []float64 {
	return slices.Sorted(slices.Values(r.Config.Epsilons))
}
