package conflict

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestAgendaStructure keeps the string-keyed, sort-per-cycle conflict set
// from growing back: no map reachable from a Set field is keyed by a
// string, and Select, Items and SelectAll never sort — they walk the
// agenda, which is already in Seq order.
func TestAgendaStructure(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]ast.Expr{}
	var set *ast.StructType
	walk := map[string]*ast.FuncDecl{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							types[ts.Name.Name] = ts.Type
							if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == "Set" {
								set = st
							}
						}
					}
				case *ast.FuncDecl:
					if d.Recv != nil && (d.Name.Name == "Select" || d.Name.Name == "Items" || d.Name.Name == "SelectAll") {
						if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok && star.X.(*ast.Ident).Name == "Set" {
							walk[d.Name.Name] = d
						}
					}
				}
			}
		}
	}
	if set == nil || len(walk) != 3 {
		t.Fatalf("found Set %v and %d of Select, Items, SelectAll", set != nil, len(walk))
	}
	// stringKeyed resolves named types of this package down to a map.
	var stringKeyed func(e ast.Expr) bool
	stringKeyed = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			if e.Name == "string" {
				return true
			}
			if def, ok := types[e.Name]; ok {
				if m, ok := def.(*ast.MapType); ok {
					return stringKeyed(m.Key)
				}
			}
		case *ast.MapType:
			return stringKeyed(e.Key)
		}
		return false
	}
	for _, f := range set.Fields.List {
		typ := f.Type
		if id, ok := typ.(*ast.Ident); ok && types[id.Name] != nil {
			typ = types[id.Name]
		}
		if m, ok := typ.(*ast.MapType); ok && stringKeyed(m.Key) {
			t.Errorf("%s: conflict.Set field keyed by a string", fset.Position(f.Pos()))
		}
	}
	for name, fn := range walk {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sort" || (pkg.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))) {
					t.Errorf("%s: Set.%s calls %s.%s; the agenda is already in Seq order", fset.Position(sel.Pos()), name, pkg.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestNoInstantiationLiteralsOutside keeps every instantiation one
// object: outside this package an Instantiation is made only by
// NewInstantiation, which sizes its allocation to hold the links the Set
// threads through it, never by a composite literal.
func TestNoInstantiationLiteralsOutside(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	self, _ := filepath.Abs(".")
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == self || (path != root && strings.HasPrefix(d.Name(), ".")) || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if isInstantiation(lit.Type) {
				t.Errorf("%s: conflict.Instantiation literal; use conflict.NewInstantiation", fset.Position(lit.Pos()))
			}
			// Elided element types: []conflict.Instantiation{{...}}.
			var elem ast.Expr
			switch typ := lit.Type.(type) {
			case *ast.ArrayType:
				elem = typ.Elt
			case *ast.MapType:
				elem = typ.Value
			}
			if star, ok := elem.(*ast.StarExpr); ok {
				elem = star.X
			}
			if isInstantiation(elem) {
				for _, e := range lit.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if u, ok := e.(*ast.UnaryExpr); ok {
						e = u.X
					}
					if c, ok := e.(*ast.CompositeLit); ok && c.Type == nil {
						t.Errorf("%s: conflict.Instantiation literal; use conflict.NewInstantiation", fset.Position(c.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d Go files under %s; expected the whole module", files, root)
	}
}

// isInstantiation reports whether e spells conflict.Instantiation.
func isInstantiation(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Instantiation" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "conflict"
}
