package crosscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestMatchWithoutCopyingStructure keeps matching copy-free: rules.Bindings
// is a slot vector, not a map; an instantiation carries no bindings of its
// own (they are read from its tuples); and Relation.Get lends the stored
// tuple instead of cloning it.
func TestMatchWithoutCopyingStructure(t *testing.T) {
	inspect := func(path string, fn func(n ast.Node)) {
		t.Helper()
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fn(n)
			return true
		})
	}

	var bindings ast.Expr
	inspect("../rules/rules.go", func(n ast.Node) {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Bindings" {
			bindings = ts.Type
		}
	})
	switch bindings.(type) {
	case nil:
		t.Error("rules.Bindings not found")
	case *ast.MapType:
		t.Error("rules.Bindings is a map again")
	}

	var inst *ast.StructType
	inspect("../conflict/conflict.go", func(n ast.Node) {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Instantiation" {
			inst, _ = ts.Type.(*ast.StructType)
		}
	})
	if inst == nil {
		t.Fatal("conflict.Instantiation not found")
	}
	for _, f := range inst.Fields.List {
		for _, name := range f.Names {
			if name.Name == "Bindings" {
				t.Error("conflict.Instantiation has a Bindings field again")
			}
		}
	}

	var get *ast.FuncDecl
	inspect("../relation/relation.go", func(n ast.Node) {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "Get" && fd.Recv != nil {
			if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Relation" {
					get = fd
				}
			}
		}
	})
	if get == nil {
		t.Fatal("Relation.Get not found")
	}
	ast.Inspect(get.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clone" {
				t.Error("Relation.Get clones the stored tuple")
			}
		}
		return true
	})
}
