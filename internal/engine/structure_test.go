package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
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

// TestNoPartitionedWorkingMemory keeps the partitioned working memory
// and its match scheduler from growing back: 0.65x of serial on two real
// cores against a 1.6x bar (EXPERIMENTS.md E17). Outside benchmark/ no
// file may be named after it, and no identifier or string literal —
// option, flag, environment variable, counter — of a non-test Go file.
func TestNoPartitionedWorkingMemory(t *testing.T) {
	banned := regexp.MustCompile(`(?i)shard`)
	const root = "../.."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "benchmark" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if banned.MatchString(d.Name()) {
			t.Errorf("%s: file name matches %s", rel, banned)
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if banned.MatchString(n.Name) {
					t.Errorf("%s: identifier %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && banned.MatchString(n.Value) {
					t.Errorf("%s: string literal %s", fset.Position(n.Pos()), n.Value)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
