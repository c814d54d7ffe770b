package match

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneMatcherContract keeps the matcher portfolio at one contract and
// five names. In non-test Go outside benchmark/ it fails on a type
// assertion or type switch to an interface declared in internal/match or
// internal/audit (capabilities are methods of Matcher, not discovered at
// run time), on internal/core importing sync (matchers run under the
// engine's maintenance mutex), and on any identifier or string literal of
// the deleted parallel core, the second Rete name and the six optional
// capability interfaces.
func TestOneMatcherContract(t *testing.T) {
	const root = "../.."
	ifaces := map[string]map[string]bool{
		"prodsys/internal/match": interfacesIn(t, filepath.Join(root, "internal/match")),
		"prodsys/internal/audit": interfacesIn(t, filepath.Join(root, "internal/audit")),
	}
	if !ifaces["prodsys/internal/match"]["Matcher"] {
		t.Fatal("match.Matcher not found; the interface scan is broken")
	}
	bannedIdents := map[string]bool{
		"WithParallelPropagation": true, "WithSimulatedIO": true, "forwardPanics": true,
		"ParallelBatches": true, "NewShared": true, "BatchMatcher": true, "Traceable": true,
		"Planned": true, "DerivedAuditor": true, "DerivedRebuilder": true, "Corrupter": true,
	}
	bannedStrings := map[string]bool{"core-parallel": true, "rete-shared": true}

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
		// Which local names refer to the contract packages, and which bare
		// identifiers do when the file is one of them.
		local := map[string]map[string]bool{}
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "sync" && filepath.ToSlash(filepath.Dir(rel)) == "internal/core" {
				t.Errorf("%s: internal/core imports sync", rel)
			}
			if set, ok := ifaces[p]; ok {
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = set
			}
		}
		own := ifaces["prodsys/"+filepath.ToSlash(filepath.Dir(rel))]
		isContractIface := func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.Ident:
				return own[e.Name]
			case *ast.SelectorExpr:
				pkg, ok := e.X.(*ast.Ident)
				return ok && local[pkg.Name][e.Sel.Name]
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil && isContractIface(n.Type) {
					t.Errorf("%s: type assertion to a matcher contract interface", fset.Position(n.Pos()))
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if isContractIface(e) {
							t.Errorf("%s: type switch case on a matcher contract interface", fset.Position(e.Pos()))
						}
					}
				}
			case *ast.Ident:
				if bannedIdents[n.Name] {
					t.Errorf("%s: identifier %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && bannedStrings[s] {
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

// interfacesIn lists the interface types declared in the non-test files
// of one package directory.
func interfacesIn(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if _, ok := ts.Type.(*ast.InterfaceType); ok {
						out[ts.Name.Name] = true
					}
				}
				return true
			})
		}
	}
	return out
}
