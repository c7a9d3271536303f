package algo_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoAtomicImports keeps exact merges out of sync/atomic: every
// non-test file under internal/algo is parsed for its imports, and none
// may import sync/atomic. A sharded pass that needs an exact merge
// writes disjoint slots, or sums per-block counts after the blocks
// finish (DESIGN.md §10.1).
func TestNoAtomicImports(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync/atomic" {
				t.Errorf("%s imports sync/atomic", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 10 {
		t.Fatalf("parsed %d non-test files; want every mechanism package", files)
	}
}
