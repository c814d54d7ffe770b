package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestCountersTakeNoLock keeps the per-increment lock from growing back:
// metrics.Set holds no RWMutex (the one Mutex guards only the named
// counters, resolved once by their callers).
func TestCountersTakeNoLock(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Set" {
			return true
		}
		found = true
		for _, f := range ts.Type.(*ast.StructType).Fields.List {
			if sel, ok := f.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "RWMutex" {
				t.Errorf("%s: metrics.Set holds an RWMutex", fset.Position(f.Pos()))
			}
		}
		return false
	})
	if !found {
		t.Fatal("metrics.Set not found")
	}
}
