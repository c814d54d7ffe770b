package quel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneJoinExecutor keeps one join executor, the rule planner, and one
// planner mode. In non-test Go outside benchmark/ it fails on a Scan call
// or the nested-loop evaluator's identifiers in internal/quel (statements
// run on joiner.Planner), on any identifier of the deleted Options.Planner
// knob, and on any write to the planner's plan cache outside planFor (so
// ad-hoc statements cannot grow it).
func TestOneJoinExecutor(t *testing.T) {
	const root = "../.."
	quelIdents := map[string]bool{"enumerate": true, "resolve": true, "renderTest": true}
	knobIdents := map[string]bool{
		"PlannerCost": true, "PlannerFixed": true, "Planners": true,
		"ErrUnknownPlanner": true, "ErrNoPlanner": true,
	}
	seen := map[string]int{}
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
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		seen[dir]++
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Scan" && dir == "internal/quel" {
					t.Errorf("%s: Scan call in internal/quel", fset.Position(n.Pos()))
				}
			case *ast.Ident:
				if knobIdents[n.Name] || (quelIdents[n.Name] && dir == "internal/quel") {
					t.Errorf("%s: identifier %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "prodsys" && n.Sel.Name == "Planner" {
					t.Errorf("%s: prodsys.Planner", fset.Position(n.Pos()))
				}
			case *ast.TypeSpec:
				if dir == "." && n.Name.Name == "Planner" {
					t.Errorf("%s: type prodsys.Planner", fset.Position(n.Pos()))
				}
				if st, ok := n.Type.(*ast.StructType); ok && dir == "." && n.Name.Name == "Options" {
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.Name == "Planner" {
								t.Errorf("%s: field Options.Planner", fset.Position(name.Pos()))
							}
						}
					}
				}
			case *ast.FuncDecl:
				if dir == "internal/joiner" && n.Name.Name != "planFor" && n.Body != nil {
					for _, pos := range planCacheWrites(n.Body) {
						t.Errorf("%s: %s writes Planner.plans", fset.Position(pos), n.Name.Name)
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
	for _, dir := range []string{".", "internal/quel", "internal/joiner"} {
		if seen[dir] == 0 {
			t.Fatalf("no non-test sources found in %s; the walk is broken", dir)
		}
	}
}

// planCacheWrites returns the positions in body that assign to, delete
// from or clear a .plans field.
func planCacheWrites(body *ast.BlockStmt) []token.Pos {
	isPlans := func(e ast.Expr) bool {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ix.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "plans"
	}
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isPlans(lhs) {
					out = append(out, lhs.Pos())
				}
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok && (fn.Name == "delete" || fn.Name == "clear") && len(n.Args) > 0 && isPlans(n.Args[0]) {
				out = append(out, n.Pos())
			}
		}
		return true
	})
	return out
}
