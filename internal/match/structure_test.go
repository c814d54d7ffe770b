package match

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
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

	eachSourceFile(t, root, func(rel string, fset *token.FileSet, file *ast.File) {
		// Which local names refer to the contract packages, and which bare
		// identifiers do when the file is one of them.
		local := map[string]map[string]bool{}
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "sync" && path.Dir(rel) == "internal/core" {
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
		own := ifaces["prodsys/"+path.Dir(rel)]
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
	})
}

// eachSourceFile parses every non-test Go file under root outside
// benchmark/ and hidden directories, and passes it to fn with its
// slash-separated path relative to root.
func eachSourceFile(t *testing.T, root string, fn func(rel string, fset *token.FileSet, file *ast.File)) {
	t.Helper()
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
		fn(filepath.ToSlash(rel), fset, file)
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

// TestOneFilterThenVerifyMatcher keeps the re-evaluating matchers in one
// package: requery, marker and ptree are filters of internal/recheck, so
// internal/requery and internal/marker do not exist, internal/ptree is
// only the condition index (no Matcher type, no conflict, joiner or match
// import), and outside tests only core, rete and recheck declare a type
// with match.Matcher's method set.
func TestOneFilterThenVerifyMatcher(t *testing.T) {
	const root = "../.."
	for _, gone := range []string{"internal/requery", "internal/marker"} {
		if _, err := os.Stat(filepath.Join(root, gone)); err == nil {
			t.Errorf("%s still exists", gone)
		}
	}
	contract := reflect.TypeOf((*Matcher)(nil)).Elem()
	methods := map[string]map[string]bool{} // "dir.Type" -> method names
	eachSourceFile(t, root, func(rel string, _ *token.FileSet, file *ast.File) {
		dir := path.Dir(rel)
		for _, imp := range file.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case "prodsys/internal/conflict", "prodsys/internal/joiner", "prodsys/internal/match":
				if dir == "internal/ptree" {
					t.Errorf("%s imports %s", rel, p)
				}
			}
		}
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && dir == "internal/ptree" {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Matcher" {
						t.Errorf("%s declares type Matcher", rel)
					}
				}
			}
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				key := dir + "." + id.Name
				if methods[key] == nil {
					methods[key] = map[string]bool{}
				}
				methods[key][fd.Name.Name] = true
			}
		}
	})
	found := map[string]bool{}
	for key, have := range methods {
		complete := true
		for i := 0; i < contract.NumMethod(); i++ {
			complete = complete && have[contract.Method(i).Name]
		}
		if dir := key[:strings.LastIndex(key, ".")]; complete {
			found[dir] = true
			if dir != "internal/core" && dir != "internal/rete" && dir != "internal/recheck" {
				t.Errorf("%s implements match.Matcher", key)
			}
		}
	}
	if !found["internal/recheck"] {
		t.Error("internal/recheck implements no match.Matcher; the method scan is broken")
	}
}
