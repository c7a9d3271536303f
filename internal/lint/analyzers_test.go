package lint_test

import (
	"testing"

	"pgb/internal/lint"
	"pgb/internal/lint/linttest"
)

// Each fixture demonstrates at least one flagged and one allowed form
// of its analyzer's contract; the harness fails on unexpected findings
// in either direction, so the fixtures are executable documentation.

func TestMapRange(t *testing.T)      { linttest.Run(t, lint.MapRange, "maprange") }
func TestRngSource(t *testing.T)     { linttest.Run(t, lint.RngSource, "rngsource") }
func TestWallTime(t *testing.T)      { linttest.Run(t, lint.WallTime, "walltime") }
func TestNonFiniteGate(t *testing.T) { linttest.Run(t, lint.NonFiniteGate, "nonfinitegate") }
func TestErrClose(t *testing.T)      { linttest.Run(t, lint.ErrClose, "errclose") }
func TestTestOnly(t *testing.T)      { linttest.Run(t, lint.TestOnly, "testonly") }

// TestDirectiveMachinery covers the escape-hatch contract itself: a
// directive without a reason is a finding, an unknown name is a
// finding, and a directive that suppresses nothing is reported as
// unused (ISSUE 10 satellite).
func TestDirectiveMachinery(t *testing.T) { linttest.Run(t, lint.ErrClose, "directive") }

func TestAnalyzersWellFormed(t *testing.T) {
	seenName := map[string]bool{}
	seenDirective := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Directive == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a required field", a)
		}
		if seenName[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		if seenDirective[a.Directive] {
			t.Errorf("duplicate directive name %q", a.Directive)
		}
		seenName[a.Name] = true
		seenDirective[a.Directive] = true
	}
}
