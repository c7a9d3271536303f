package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly flags an exported function, method, package-level var or
// const, or interface method under internal/ that no non-test file of
// the module references, its own file included (DESIGN.md §14.8): code
// that only tests use belongs in the tests. A concrete method that
// implements an interface of its package or of a direct import is in
// use through it. Surface for callers outside the module is waived
// with //pgb:export <reason>.
var TestOnly = &Analyzer{
	Name:      "testonly",
	Doc:       "flags exported internal/ declarations that no non-test file of the module references (DESIGN.md §14.8)",
	Directive: "export",
	AppliesTo: prefixFilter("pgb/internal"),
	Run:       runTestOnly,
}

func runTestOnly(pass *Pass) {
	path := pass.Pkg.Path()
	if strings.HasSuffix(path, "_test") {
		return // an external test package declares nothing outside tests
	}
	used := map[string]bool{}
	for _, p := range pass.Module {
		for _, f := range p.Files {
			if isTestPos(p.Fset, f.Package) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path {
						used[declKey(obj)] = true
					}
				}
				return true
			})
		}
	}

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		decls := []types.Object{scope.Lookup(name)}
		if tn, ok := decls[0].(*types.TypeName); ok {
			decls = nil // a type is not checked, its methods are
			if named, ok := tn.Type().(*types.Named); ok && !tn.IsAlias() {
				for i := 0; i < named.NumMethods(); i++ {
					decls = append(decls, named.Method(i))
				}
				if it, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						decls = append(decls, it.ExplicitMethod(i))
					}
				}
			}
		}
		for _, obj := range decls {
			key := declKey(obj)
			if obj.Exported() && key != "" && !used[key] && !isTestPos(pass.Fset, obj.Pos()) && !implementsInterface(pass, obj) {
				pass.Reportf(obj.Pos(), "%s is exported but no non-test file uses it: delete it, move it into the tests that need it, or justify it with //pgb:export <reason>", key)
			}
		}
	}
}

func isTestPos(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// declKey is the package-qualified name of a package-level func, var or
// const, or a method — the same for a package's own object and the one
// its importers see through export data — and "" for anything else.
func declKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin().FullName()
	case *types.Var, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// implementsInterface reports whether obj is a concrete method whose
// receiver implements a non-generic named interface with a method of its
// name that the package's non-test files declare or import.
func implementsInterface(pass *Pass, obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil || types.IsInterface(fn.Signature().Recv().Type()) {
		return false
	}
	recv := fn.Signature().Recv().Type()
	imported := map[string]bool{pass.Pkg.Path(): true}
	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			if !isTestPos(pass.Fset, spec.Pos()) {
				imported[strings.Trim(spec.Path.Value, `"`)] = true
			}
		}
	}
	for _, p := range append(pass.Pkg.Imports(), pass.Pkg) {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !imported[p.Path()] || isTestPos(pass.Fset, tn.Pos()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			it, isIface := tn.Type().Underlying().(*types.Interface)
			if ok && isIface && named.TypeParams().Len() == 0 {
				if m, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); m != nil &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
	}
	return false
}
