package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestEveryCommandDocumented: every subcommand main dispatches is listed
// in both the package comment and usage().
func TestEveryCommandDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	var usageText string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				if fn.Name.Name != "main" {
					return false
				}
				for _, e := range n.List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						c, _ := strconv.Unquote(lit.Value)
						cmds = append(cmds, c)
					}
				}
			case *ast.BasicLit:
				if fn.Name.Name == "usage" && n.Kind == token.STRING {
					s, _ := strconv.Unquote(n.Value)
					usageText += s
				}
			}
			return true
		})
	}
	if len(cmds) < 20 || usageText == "" {
		t.Fatalf("parsed %d dispatched commands and %d bytes of usage; the parse missed main or usage", len(cmds), len(usageText))
	}
	doc := f.Doc.Text()
	for _, c := range cmds {
		if c == "help" || strings.HasPrefix(c, "-") {
			continue
		}
		if !strings.Contains(doc, "pgb "+c+" ") {
			t.Errorf("package comment does not list %q", c)
		}
		if !strings.Contains(usageText, "\n  "+c+" ") {
			t.Errorf("usage() does not list %q", c)
		}
	}
}
