package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

func parseTestPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: "p", Fset: fset, Files: []*ast.File{f}}
}

func TestCollectDirectives(t *testing.T) {
	pkg := parseTestPkg(t, `package p

//pgb:deterministic effects are commutative
func a() {}

func b() { //pgb:errclose   padded reason
}

//pgb:rand reason text // want "stripped by the fixture harness"
func c() {}

//pgb:walltime
func d() {}

// pgb:deterministic not a directive: space after the slashes
/*pgb:deterministic not a directive: block comment*/
func e() {}
`)
	dirs := collectDirectives(pkg)
	want := []struct {
		name, reason string
		line         int
	}{
		{"deterministic", "effects are commutative", 3},
		{"errclose", "padded reason", 6},
		{"rand", "reason text", 9},
		{"walltime", "", 12},
	}
	if len(dirs) != len(want) {
		t.Fatalf("got %d directives, want %d: %+v", len(dirs), len(want), dirs)
	}
	for i, w := range want {
		d := dirs[i]
		if d.name != w.name || d.reason != w.reason || d.line != w.line {
			t.Errorf("directive %d = {%q %q line %d}, want {%q %q line %d}",
				i, d.name, d.reason, d.line, w.name, w.reason, w.line)
		}
	}
}

func TestDirectiveSuppresses(t *testing.T) {
	d := directive{name: "deterministic", reason: "why", file: "f.go", line: 10}
	cases := []struct {
		name string
		file string
		line int
		want bool
	}{
		{"deterministic", "f.go", 10, true},  // trailing comment
		{"deterministic", "f.go", 11, true},  // line above
		{"deterministic", "f.go", 12, false}, // two lines away
		{"deterministic", "f.go", 9, false},  // directive below the code
		{"deterministic", "g.go", 10, false}, // other file
		{"errclose", "f.go", 10, false},      // other analyzer
	}
	for _, c := range cases {
		if got := d.suppresses(c.name, c.file, c.line); got != c.want {
			t.Errorf("suppresses(%q, %q, %d) = %v, want %v", c.name, c.file, c.line, got, c.want)
		}
	}
	// A reasonless directive suppresses nothing.
	empty := directive{name: "deterministic", file: "f.go", line: 10}
	if empty.suppresses("deterministic", "f.go", 10) {
		t.Error("reasonless directive must not suppress")
	}
}

func TestPrefixFilter(t *testing.T) {
	f := prefixFilter("pgb/internal/algo", "pgb/internal/dp")
	cases := []struct {
		path string
		want bool
	}{
		{"pgb/internal/algo", true},
		{"pgb/internal/algo/tmf", true},
		{"pgb/internal/dp", true},
		{"pgb/internal/algorithmic", false}, // prefix must end at a path boundary
		{"pgb/internal/stats", false},
		{"pgb", false},
	}
	for _, c := range cases {
		if got := f(c.path); got != c.want {
			t.Errorf("filter(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestUnusedDirectiveNeedsSelectedAnalyzer: a subset run reports as
// unused only the directives of the analyzers it ran, while the full
// suite reports every unused directive, also one whose analyzer is out
// of the package's scope.
func TestUnusedDirectiveNeedsSelectedAnalyzer(t *testing.T) {
	pkg := parseTestPkg(t, `package p

//pgb:errclose nothing here to waive
func a() {}

//pgb:deterministic nothing here to waive either
func b() {}
`)
	noop := func(directive string, inScope bool) *Analyzer {
		return &Analyzer{
			Name:      directive,
			Directive: directive,
			AppliesTo: func(string) bool { return inScope },
			Run:       func(*Pass) {},
		}
	}
	unused := func(analyzers ...*Analyzer) []int {
		var lines []int
		for _, f := range RunPackage(pkg, []*Package{pkg}, analyzers, true) {
			if f.Analyzer != "directive" || !strings.HasPrefix(f.Message, "unused //pgb:") {
				t.Fatalf("unexpected finding %s: %s", f.Pos, f.Message)
			}
			lines = append(lines, f.Pos.Line)
		}
		return lines
	}
	if got := unused(noop("errclose", true)); !slices.Equal(got, []int{3}) {
		t.Errorf("subset run: unused directives on lines %v, want [3]", got)
	}
	if got := unused(noop("errclose", true), noop("deterministic", false)); !slices.Equal(got, []int{3, 6}) {
		t.Errorf("full run with an out-of-scope analyzer: unused directives on lines %v, want [3 6]", got)
	}
}
