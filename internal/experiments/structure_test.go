package experiments

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
	"testing"
)

// TestClaimsAreTestsOnly keeps the printing harness from growing back:
// the paper's claims live here as asserted tests, so this package has no
// non-test Go file, and the table printer (cmd/psbench) and the static
// rule-interaction analysis only its tables used are gone.
func TestClaimsAreTestsOnly(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name := range pkg.Files {
			t.Errorf("internal/experiments has a non-test file %s", name)
		}
	}
	for _, dir := range []string{"cmd/psbench", "internal/analysis"} {
		if _, err := os.Stat("../../" + dir); !os.IsNotExist(err) {
			t.Errorf("%s exists", dir)
		}
	}
}
