// Package lint implements pgblint, the repo's static-contract checker.
//
// Every load-bearing guarantee in this codebase — bit-identical
// parallel runs (DESIGN.md §2/§10/§11), digest-stable manifests (§5),
// NaN-safe gating (§12), atomic snapshot writes (§13) — used to be
// enforced by convention and caught by golden tests after the fact.
// pgblint moves those contracts to analysis time: each analyzer in this
// package encodes one bug class the tree has already been burned by,
// and CI gates at zero findings (DESIGN.md §14).
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer / Pass / report / testdata
// fixtures with "want" comments) but is built only on go/ast, go/types
// and the go tool: packages are enumerated with `go list` and imports
// are resolved from compiler export data, so the module keeps its
// zero-dependency go.mod and the checker runs fully offline. If the
// module ever grows a vendored golang.org/x/tools, the analyzers port
// to real analysis.Analyzer values mechanically: Run(*Pass) and
// Reportf have the same meaning here.
//
// Deliberate violations are justified in place with a position-checked
// directive comment:
//
//	//pgb:<name> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// text is required — a bare directive is itself a finding — and a
// directive that suppresses nothing is reported as unused, so stale
// escape hatches cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static contract: how it is named on the
// command line, which packages it applies to, which //pgb: directive
// waives it, and the function that checks a single package.
type Analyzer struct {
	// Name identifies the analyzer in findings and documentation.
	Name string

	// Doc is a one-paragraph description: the invariant, the bug
	// class it encodes, and the escape hatch.
	Doc string

	// Directive is the //pgb:<Directive> name that suppresses this
	// analyzer's findings (with a required reason).
	Directive string

	// AppliesTo filters packages by import path; nil means the
	// analyzer runs everywhere. Fixture tests bypass this filter.
	AppliesTo func(importPath string) bool

	// Run checks one type-checked package, reporting findings
	// through the pass.
	Run func(*Pass)
}

// A Pass provides one analyzer with a single type-checked package and
// collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Module   []*Package // every package loaded in the run, Pkg's included

	report func(diag)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(diag{pos: pos, analyzer: p.Analyzer, msg: fmt.Sprintf(format, args...)})
}

// diag is a raw in-flight finding, before directive suppression and
// position resolution.
type diag struct {
	pos      token.Pos
	analyzer *Analyzer
	msg      string
}

// A Finding is one resolved pgblint diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string // analyzer name, or "directive" for directive-machinery findings
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzers returns the full pgblint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapRange, RngSource, WallTime, NonFiniteGate, ErrClose, TestOnly}
}

// prefixFilter returns an AppliesTo function matching any of the given
// import paths or their subpackages.
func prefixFilter(prefixes ...string) func(string) bool {
	return func(path string) bool {
		for _, p := range prefixes {
			if path == p || (len(path) > len(p) && path[:len(p)] == p && path[len(p)] == '/') {
				return true
			}
		}
		return false
	}
}
