package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestSingleCommitPipeline keeps the write-path count from silently
// growing back: in the package's non-test files each WAL commit-point
// call has exactly one call site (all inside commit → runLocked →
// logLocked), and no function is parameterized on whether its caller
// holds the maintenance mutex.
func TestSingleCommitPipeline(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{"AppendBatch": 0, "AppendTxn": 0, "CheckpointDue": 0, "WaitDurable": 0, "logLocked": 0, "runLocked": 0}
	checkParams := func(ft *ast.FuncType, pos token.Pos) {
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				if name.Name == "lockedMu" {
					t.Errorf("%s: a function takes a lockedMu parameter; every body runs under maintMu", fset.Position(pos))
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					checkParams(n.Type, n.Pos())
				case *ast.FuncLit:
					checkParams(n.Type, n.Pos())
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if _, tracked := calls[sel.Sel.Name]; tracked {
							calls[sel.Sel.Name]++
						}
					}
				}
				return true
			})
		}
	}
	for name, n := range calls {
		if n != 1 {
			t.Errorf("%s has %d call sites in non-test internal/engine, want exactly 1 (the commit pipeline)", name, n)
		}
	}
}
