package lint

import (
	"sort"
	"strings"
)

// driver.go runs a set of analyzers over loaded packages, applies the
// //pgb: directive suppressions, and reports on the directives
// themselves (unknown name, missing reason, unused).

// Run checks every package with every applicable analyzer and returns
// the surviving findings in a deterministic order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, RunPackage(pkg, pkgs, analyzers, true)...)
	}
	sortFindings(all)
	return all
}

// RunPackage checks pkg, one of module. When applyScope is false every
// analyzer runs regardless of its AppliesTo filter (the fixture
// harness uses this). The full suite's directive names are always
// registered, so directive findings are consistent whichever analyzers
// run. A directive is reported unused only when its analyzer is one of
// analyzers: a subset run (pgblint -only) cannot tell whether the
// others' directives suppress anything. A selected analyzer that is out
// of pkg's scope still counts, so the full suite flags a directive
// left in a package its analyzer never checks.
func RunPackage(pkg *Package, module []*Package, analyzers []*Analyzer, applyScope bool) []Finding {
	dirs := collectDirectives(pkg)

	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Directive] = true
	}
	selected := map[string]bool{}

	var raw []diag
	// External test packages share their base package's contract
	// scope: "pgb/internal/core_test" is filtered as "pgb/internal/core".
	scopePath := strings.TrimSuffix(pkg.ImportPath, "_test")
	for _, a := range analyzers {
		known[a.Directive] = true
		selected[a.Directive] = true
		if applyScope && a.AppliesTo != nil && !a.AppliesTo(scopePath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Module:   module,
		}
		pass.report = func(d diag) { raw = append(raw, d) }
		a.Run(pass)
	}

	used := make([]bool, len(dirs))
	var out []Finding
	for _, d := range raw {
		pos := pkg.Fset.Position(d.pos)
		suppressed := false
		for i := range dirs {
			if dirs[i].suppresses(d.analyzer.Directive, pos.Filename, pos.Line) {
				used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, Finding{Pos: pos, Analyzer: d.analyzer.Name, Message: d.msg})
		}
	}

	for i := range dirs {
		d := &dirs[i]
		f := Finding{Pos: pkg.Fset.Position(d.pos), Analyzer: "directive"}
		switch {
		case !known[d.name]:
			f.Message = "unknown directive //pgb:" + d.name + " (known: " + strings.Join(knownNames(known), ", ") + ")"
		case d.reason == "":
			f.Message = "//pgb:" + d.name + " requires a reason (\"//pgb:" + d.name + " why this is safe\")"
		case !used[i] && selected[d.name]:
			f.Message = "unused //pgb:" + d.name + " directive: nothing to suppress on this line or the next"
		default:
			continue
		}
		out = append(out, f)
	}

	sortFindings(out)
	return out
}

func knownNames(known map[string]bool) []string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
