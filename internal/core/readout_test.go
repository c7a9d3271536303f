package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pgb/internal/datasets"
)

// handResults builds a finished run without the engine: three
// algorithms × three datasets (the last an edge-list file outside the
// Table II taxonomy) × two ε, listed out of order, over the queries qs
// (nil means the paper's fifteen). Errors follow a fixed formula with no
// accidental ties; the cells below then pin the cases every reader of a
// run must agree on:
//   - TmF and DGG tie exactly on |E| for (Facebook, ε=5);
//   - DGG's Tri error on (ER, ε=0.5) is NaN;
//   - PrivGraph failed on (ER, ε=5) and on both edges.txt cells;
//   - PrivGraph on (Facebook, ε=0.5) skipped CD, the higher-is-better
//     query.
func handResults(qs []QueryID) *Results {
	cfg := Config{
		Algorithms: []string{"TmF", "DGG", "PrivGraph"},
		Datasets:   []string{"Facebook", "ER", "edges.txt"},
		Epsilons:   []float64{5, 0.5},
		Queries:    qs,
		Reps:       1,
		Scale:      0.02,
		Seed:       7,
	}
	r := &Results{Config: cfg, DatasetSummaries: map[string]datasets.Summary{
		"Facebook": {Name: "Facebook", Nodes: 81, Edges: 1765, ACC: 0.6055, Type: "Social"},
		"ER":       {Name: "ER", Nodes: 200, Edges: 1000, ACC: 0.0498, Type: "Synthetic"},
	}}
	for ai, alg := range cfg.Algorithms {
		for di, ds := range cfg.Datasets {
			for ei, eps := range cfg.Epsilons {
				c := CellResult{
					Algorithm:  alg,
					Dataset:    ds,
					Epsilon:    eps,
					GenSeconds: float64(ai+1)*0.25 + float64(di)*0.01 + float64(ei)*0.5,
					GenBytes:   float64((ai+1)*(di+2)) * (1 << 19),
				}
				for qi, q := range r.Queries() {
					v := float64((ai*5+di*3+ei*7+qi*2)%9) / 8
					switch {
					case alg == "PrivGraph" && ds == "Facebook" && eps == 0.5 && q == QCommunityDetection:
						continue
					case alg == "DGG" && ds == "Facebook" && eps == 5 && q == QNumEdges:
						v, _ = r.Cells[0].ErrorFor(QNumEdges) // TmF's value: an exact tie
					case alg == "DGG" && ds == "ER" && eps == 0.5 && q == QTriangles:
						v = math.NaN()
					}
					c.Queries = append(c.Queries, q)
					c.Errors = append(c.Errors, v)
					c.StdDev = append(c.StdDev, v/10)
				}
				if alg == "PrivGraph" && (ds == "edges.txt" || (ds == "ER" && eps == 5)) {
					c.Err = errors.New("injected failure")
				}
				r.Cells = append(r.Cells, c)
			}
		}
	}
	return r
}

// TestReadoutGoldens pins every reader of a finished run to the bytes it
// printed before the best-count tally, the column-best marks and the ε
// means were shared between the text and HTML renderers. The goldens
// under testdata/readout were captured from those earlier renderers.
func TestReadoutGoldens(t *testing.T) {
	r := handResults(nil)
	recommend := func() string {
		var sb strings.Builder
		for _, s := range []Scenario{
			{Nodes: 5000, ACC: 0.5, Epsilon: 1},
			{Nodes: 300, ACC: 0.1, Epsilon: 4, Queries: []QueryID{QCommunityDetection, QNumEdges}},
		} {
			sb.WriteString(FormatRecommendations(s, RecommendFromResults(r, s)))
		}
		return sb.String()
	}
	series := func() string {
		return r.FormatSeries("series", []QueryID{QNumEdges, QTriangles, QCommunityDetection}, r.Config.Datasets)
	}
	html := func() string {
		var sb strings.Builder
		if err := WriteHTMLReport(&sb, r); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	//pgb:deterministic each output is compared with its own golden
	for name, got := range map[string]func() string{
		"table7":    r.FormatTable7,
		"table9":    r.FormatTable9,
		"table10":   r.FormatTable10,
		"table12":   r.FormatTable12,
		"types":     r.FormatTypeAnalysis,
		"series":    series,
		"recommend": recommend,
		"html":      html,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "readout", name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out := got(); out != string(want) {
				t.Fatalf("output drifted from %s:\n%s\nwant:\n%s", path, out, want)
			}
		})
	}
}

// TestHTMLTable7NoteCountsRunQueries: the HTML Table VII note states the
// run's own query count, as the text table's header does.
func TestHTMLTable7NoteCountsRunQueries(t *testing.T) {
	r := handResults([]QueryID{QCommunityDetection, QModularity})
	var sb strings.Builder
	if err := WriteHTMLReport(&sb, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Entries count wins over the 2 queries;") {
		t.Fatalf("HTML Table VII note does not count the run's 2 queries:\n%s", sb.String())
	}
	if !strings.Contains(r.FormatTable7(), "(out of 2 queries)") {
		t.Fatalf("text Table VII header does not count the run's 2 queries:\n%s", r.FormatTable7())
	}
}

// TestHandResultsCorners guards the fixture itself: the corner cases the
// goldens rely on are really in it.
func TestHandResultsCorners(t *testing.T) {
	r := handResults(nil)
	idx := r.index()
	tmf, _ := idx.value("TmF", "Facebook", 5, QNumEdges)
	dgg, _ := idx.value("DGG", "Facebook", 5, QNumEdges)
	if tmf != dgg {
		t.Errorf("no exact |E| tie: TmF %v, DGG %v", tmf, dgg)
	}
	if v, ok := idx.value("DGG", "ER", 0.5, QTriangles); !ok || !math.IsNaN(v) {
		t.Errorf("DGG Tri on (ER, 0.5) = %v, %v; want NaN", v, ok)
	}
	if _, ok := idx.value("PrivGraph", "ER", 5, QNumEdges); ok {
		t.Error("PrivGraph on (ER, 5) did not fail")
	}
	if _, ok := idx.value("PrivGraph", "Facebook", 0.5, QCommunityDetection); ok {
		t.Error("PrivGraph on (Facebook, 0.5) evaluated CD")
	}
}

// TestBestCountsRepeatedAxes: a dataset, ε or query the config lists
// twice is still one Table VII column, ε block or Table XII column, so
// its best counts match those of the run that lists it once.
func TestBestCountsRepeatedAxes(t *testing.T) {
	once := handResults(nil)
	twice := handResults(nil)
	twice.Config.Datasets = append(twice.Config.Datasets, "ER")
	twice.Config.Epsilons = append(twice.Config.Epsilons, 5)
	if got, want := twice.BestCounts7(), once.BestCounts7(); !reflect.DeepEqual(got, want) {
		t.Errorf("BestCounts7 with ER and ε=5 listed twice = %v, want %v", got, want)
	}
	twice = handResults(nil)
	twice.Config.Queries = append(AllQueries(), QCommunityDetection)
	if got, want := twice.BestCounts12(), once.BestCounts12(); !reflect.DeepEqual(got, want) {
		t.Errorf("BestCounts12 with CD listed twice = %v, want %v", got, want)
	}
}
