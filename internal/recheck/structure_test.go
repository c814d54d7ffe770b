package recheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestCondIndexStructure keeps the COND relations indexed: the per-CE
// pattern lists, the fmt-built string keys, the per-batch snapshot and
// its hash-bucket heuristic must not grow back beside the shape index,
// and detectInserts must search only through the one detection helper.
func TestCondIndexStructure(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"condHashJoinMin": true, "byCE": true, "byKey": true, "patternKey": true}
	indexTypes := map[string]bool{"pattern": true, "shape": true, "condIndex": true, "store": true}
	var calls map[string]bool // methods detectInserts calls
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if banned[n.Name] {
						t.Errorf("%s: %s is back", fset.Position(n.Pos()), n.Name)
					}
				case *ast.MapType:
					if k, ok := n.Key.(*ast.Ident); ok && k.Name == "string" && mentions(n.Value, "pattern") {
						t.Errorf("%s: string-keyed pattern map", fset.Position(n.Pos()))
					}
				case *ast.FuncDecl:
					recv := recvType(n)
					if n.Name.Name == "snapshot" {
						t.Errorf("%s: a snapshot method is back", fset.Position(n.Pos()))
					}
					if (strings.Contains(strings.ToLower(n.Name.Name), "key") || indexTypes[recv]) && callsFmt(n) {
						t.Errorf("%s: %s builds strings with fmt on the pattern-key path", fset.Position(n.Pos()), n.Name.Name)
					}
					if recv == "cond" && n.Name.Name == "detectInserts" {
						calls = methodsCalled(n)
					}
				}
				return true
			})
		}
	}
	var helpers []string
	for name := range calls {
		if strings.Contains(strings.ToLower(name), "detect") {
			helpers = append(helpers, name)
		}
	}
	sort.Strings(helpers)
	if len(helpers) != 1 || helpers[0] != "detect" {
		t.Errorf("detectInserts calls detection helpers %v, want exactly [detect]", helpers)
	}
	for _, direct := range []string{"MatchPattern", "checkChain", "matches", "alone"} {
		if calls[direct] {
			t.Errorf("detectInserts calls %s directly; COND searches go through detect", direct)
		}
	}
}

// mentions reports whether the type expression names ident anywhere.
func mentions(e ast.Expr, ident string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == ident {
			found = true
		}
		return !found
	})
	return found
}

// recvType is the receiver's type name, "" for a plain function.
func recvType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func callsFmt(fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
				found = true
			}
		}
		return !found
	})
	return found
}

// methodsCalled collects the selector names called in fn's body: m.X(),
// ci.X(), ce.X() and so on.
func methodsCalled(fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				out[sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}
