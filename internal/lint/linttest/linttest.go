// Package linttest runs pgblint analyzers against testdata fixtures,
// in the style of golang.org/x/tools/go/analysis/analysistest: each
// fixture line that should produce a finding carries a trailing
//
//	// want `regexp`
//
// comment (multiple backquoted or quoted regexps for multiple
// findings). The harness fails the test on any unexpected finding and
// on any want that went unmatched, so fixtures document both the
// flagged and the allowed form of every pattern.
package linttest

import (
	"regexp"
	"testing"

	"pgb/internal/lint"
)

// expectation is one parsed want pattern.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var (
	wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
	strRe  = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

// Run loads testdata/src/<fixture> as a package through lint.Load, the
// loader pgblint itself uses, runs the single analyzer over it (scope
// filters bypassed) together with the directive machinery, and checks
// the findings against the fixture's want comments.
//
//pgb:export the fixture harness: lint's own tests are its only importers, by design
func Run(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	pkgs, err := lint.Load(".", "./testdata/src/"+fixture)
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("loading fixture %s: %d packages, error %v", fixture, len(pkgs), err)
	}
	pkg := pkgs[0]

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				pats := strRe.FindAllStringSubmatch(m[1], -1)
				if len(pats) == 0 {
					t.Errorf("%s: want comment with no quoted pattern", pos)
					continue
				}
				for _, p := range pats {
					pat := p[1]
					if pat == "" {
						pat = p[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	findings := lint.RunPackage(pkg, pkgs, []*lint.Analyzer{a}, false)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}
