package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NonFiniteGate flags the float out-of-range idiom
//
//	x < lo || x > hi
//
// in gate and interval code. Every comparison against NaN is false, so
// under a poisoned (NaN) measurement the disjunction is vacuously
// false and the gate silently passes — the PR 7 bug class (metrics
// renormalised non-finite input away; fidelity drift could sail
// through). Range checks on floats in gate code must route through
// metrics.Interval.Contains / metrics.AllFinite, which fail closed on
// non-finite input. The conjunction form (x >= lo && x <= hi) already
// fails closed and is not flagged. Escape hatch: //pgb:nonfinite
// <reason> (e.g. the operand was proven finite on entry).
var NonFiniteGate = &Analyzer{
	Name:      "nonfinitegate",
	Doc:       "flags NaN-vacuous float range checks (x < lo || x > hi) in gate/interval code (DESIGN.md §12; the PR 7 bug class)",
	Directive: "nonfinite",
	AppliesTo: prefixFilter(
		"pgb/internal/metrics",
		"pgb/internal/core",
		"pgb/internal/datasets",
		"pgb/internal/server",
		"pgb/cmd/benchgate",
		"pgb/cmd/fidelitygate",
	),
	Run: runNonFiniteGate,
}

func runNonFiniteGate(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			or, ok := n.(*ast.BinaryExpr)
			if !ok || or.Op != token.LOR {
				return true
			}
			left, lok := floatComparison(pass, or.X)
			right, rok := floatComparison(pass, or.Y)
			if !lok || !rok {
				return true
			}
			// The two comparisons must gate the same operand from
			// opposite sides: one "too small", one "too large".
			for _, l := range left {
				for _, r := range right {
					if l.expr == r.expr && l.dir != r.dir {
						pass.Reportf(or.Pos(),
							"float range check %q is vacuously false when %s is NaN, so a poisoned value passes the gate; use metrics.Interval.Contains / metrics.AllFinite, or justify with //pgb:nonfinite <reason>",
							types.ExprString(or), l.expr)
						return true
					}
				}
			}
			return true
		})
	}
}

// gatedOperand is one side of a comparison, normalised to "expr is
// rejected when too small/too large".
type gatedOperand struct {
	expr string // types.ExprString of the operand
	dir  int    // -1: comparison fires when expr is small; +1: when large
}

// floatComparison decomposes a <, <=, > or >= comparison with a
// floating-point operand into its two gated operands.
func floatComparison(pass *Pass, e ast.Expr) ([]gatedOperand, bool) {
	e = ast.Unparen(e)
	cmp, ok := e.(*ast.BinaryExpr)
	if !ok {
		return nil, false
	}
	var leftSmall bool // true when the comparison fires with a small left operand
	switch cmp.Op {
	case token.LSS, token.LEQ:
		leftSmall = true
	case token.GTR, token.GEQ:
		leftSmall = false
	default:
		return nil, false
	}
	if !isFloat(pass, cmp.X) && !isFloat(pass, cmp.Y) {
		return nil, false
	}
	dir := func(small bool) int {
		if small {
			return -1
		}
		return 1
	}
	return []gatedOperand{
		{expr: types.ExprString(cmp.X), dir: dir(leftSmall)},
		{expr: types.ExprString(cmp.Y), dir: dir(!leftSmall)},
	}, true
}

func isFloat(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
