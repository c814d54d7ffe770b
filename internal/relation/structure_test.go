package relation

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

// TestOneStorageLayout keeps working memory on one storage layout, the
// row store, with no knob to choose another. In non-test Go outside
// benchmark/ it fails on an interface type in internal/relation (one
// implementation needs no seam), on internal/relation importing os (the
// environment selects nothing), and on any identifier or string literal
// of the deleted columnar backend and its selection machinery.
func TestOneStorageLayout(t *testing.T) {
	const root = "../.."
	bannedIdents := map[string]bool{
		"colStore": true, "StorageColumnar": true, "StorageKind": true, "StorageKinds": true,
		"ParseStorage": true, "DefaultStorageKind": true, "NewWithStorage": true,
		"SetDefaultStorage": true, "SetClassStorage": true, "StorageFor": true, "StorageByClass": true,
	}
	bannedStrings := map[string]bool{"columnar": true, "PRODSYS_STORAGE": true}

	seen := 0
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
		inRelation := filepath.ToSlash(filepath.Dir(rel)) == "internal/relation"
		if inRelation {
			seen++
			for _, imp := range file.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
					t.Errorf("%s: internal/relation imports os", rel)
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				if inRelation {
					t.Errorf("%s: interface type in internal/relation", fset.Position(n.Pos()))
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
	if seen == 0 {
		t.Fatal("no internal/relation sources found; the walk is broken")
	}
}
