package core

import (
	"fmt"
	"html/template"
	"io"
	"slices"
)

// WriteHTMLReport renders the full benchmark outcome as a standalone HTML
// page — the offline analogue of the paper's public results platform
// (https://pgb-result.github.io/): dataset statistics, the Table VII and
// Table XII best-count matrices with winners highlighted, the Table IX
// time matrix, and the Fig. 2 error series.
func WriteHTMLReport(w io.Writer, r *Results) error {
	data := buildHTMLData(r)
	return reportTemplate.Execute(w, data)
}

type htmlCell struct {
	Text string
	Best bool
}

type htmlTable struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]htmlCell
}

type htmlData struct {
	Title  string
	Config string
	Tables []htmlTable
}

func buildHTMLData(r *Results) htmlData {
	d := htmlData{
		Title: "PGB — Private Graph Benchmark results",
		Config: fmt.Sprintf("%d algorithms × %d datasets × %d privacy budgets × %d repetitions, scale %g, seed %d",
			len(r.Config.Algorithms), len(r.Config.Datasets), len(r.Config.Epsilons), r.Config.Reps, r.Config.Scale, r.Config.Seed),
	}

	// Table VI analogue
	dsTable := htmlTable{
		Title:  "Datasets (Table VI)",
		Header: []string{"Graph", "|V|", "|E|", "ACC", "Type"},
	}
	for _, name := range r.Config.Datasets {
		s, ok := r.DatasetSummaries[name]
		if !ok {
			continue
		}
		dsTable.Rows = append(dsTable.Rows, []htmlCell{
			{Text: s.Name}, {Text: fmt.Sprint(s.Nodes)}, {Text: fmt.Sprint(s.Edges)},
			{Text: fmt.Sprintf("%.4f", s.ACC)}, {Text: s.Type},
		})
	}
	d.Tables = append(d.Tables, dsTable)

	// Table VII
	counts7 := r.BestCounts7()
	eps := r.sortedEpsilons()
	t7 := htmlTable{
		Title:  "Overall best counts (Table VII)",
		Note:   fmt.Sprintf("Entries count wins over the %d queries; ties credit every best performer. Shaded = column best within the ε block.", len(r.Queries())),
		Header: append([]string{"ε", "Algorithm"}, r.Config.Datasets...),
	}
	for _, e := range eps {
		best := colMax(r.Config.Datasets, r.Config.Algorithms, counts7[e])
		for i, alg := range r.Config.Algorithms {
			row := make([]htmlCell, 0, len(r.Config.Datasets)+2)
			label := ""
			if i == 0 {
				label = fmt.Sprintf("%g", e)
			}
			row = append(row, htmlCell{Text: label}, htmlCell{Text: alg})
			for _, ds := range r.Config.Datasets {
				c := counts7[e][ds][alg]
				row = append(row, htmlCell{Text: fmt.Sprint(c), Best: best(ds, c)})
			}
			t7.Rows = append(t7.Rows, row)
		}
	}
	d.Tables = append(d.Tables, t7)

	// Table XII
	counts12 := r.BestCounts12()
	t12 := htmlTable{
		Title:  "Per-query best counts (Table XII)",
		Header: []string{"Algorithm"},
	}
	for _, q := range r.Queries() {
		t12.Header = append(t12.Header, q.String())
	}
	best := colMax(r.Queries(), r.Config.Algorithms, counts12)
	for _, alg := range r.Config.Algorithms {
		row := []htmlCell{{Text: alg}}
		for _, q := range r.Queries() {
			c := counts12[q][alg]
			row = append(row, htmlCell{Text: fmt.Sprint(c), Best: best(q, c)})
		}
		t12.Rows = append(t12.Rows, row)
	}
	d.Tables = append(d.Tables, t12)

	// Table IX
	idx := r.index()
	t9 := htmlTable{
		Title:  "Generation time, seconds (Table IX)",
		Header: append([]string{"Graph"}, r.Config.Algorithms...),
	}
	for _, ds := range r.Config.Datasets {
		row := []htmlCell{{Text: ds}}
		for _, alg := range r.Config.Algorithms {
			text := "–"
			if v, ok := idx.mean(alg, ds, r.Config.Epsilons, func(c *CellResult) float64 { return c.GenSeconds }); ok {
				text = fmt.Sprintf("%.3f", v)
			}
			row = append(row, htmlCell{Text: text})
		}
		t9.Rows = append(t9.Rows, row)
	}
	d.Tables = append(d.Tables, t9)

	// Fig. 2 series as tables
	for _, q := range Fig2Queries() {
		for _, ds := range Fig2Datasets() {
			if !slices.Contains(r.Config.Datasets, ds) {
				continue
			}
			ft := htmlTable{
				Title:  fmt.Sprintf("Fig. 2 — %s (%s) on %s", q.String(), q.Metric(), ds),
				Header: []string{"Algorithm"},
			}
			for _, e := range eps {
				ft.Header = append(ft.Header, fmt.Sprintf("ε=%g", e))
			}
			for _, alg := range r.Config.Algorithms {
				row := []htmlCell{{Text: alg}}
				for _, e := range eps {
					text := "–"
					if v, ok := idx.value(alg, ds, e, q); ok {
						text = fmt.Sprintf("%.4f", v)
					}
					row = append(row, htmlCell{Text: text})
				}
				ft.Rows = append(ft.Rows, row)
			}
			d.Tables = append(d.Tables, ft)
		}
	}
	return d
}

var reportTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
p.config { color: #555; }
table { border-collapse: collapse; margin: 0.75rem 0; font-size: 0.85rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: right; }
th:first-child, td:first-child, td:nth-child(2) { text-align: left; }
th { background: #f0f0f0; }
td.best { background: #d7ecd9; font-weight: 600; }
p.note { color: #666; font-size: 0.8rem; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="config">{{.Config}}</p>
{{range .Tables}}
<h2>{{.Title}}</h2>
{{if .Note}}<p class="note">{{.Note}}</p>{{end}}
<table>
<tr>{{range .Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td{{if .Best}} class="best"{{end}}>{{.Text}}</td>{{end}}</tr>
{{end}}
</table>
{{end}}
</body>
</html>
`))
