package olive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFacadeFuncsHaveCallers keeps the facade to what its callers use:
// every exported func of olive.go must be named as olive.<Name> in an
// example, a command, README.md or the package doc. Types and consts are
// exempt — they stay while a kept func's signature or struct needs them.
func TestFacadeFuncsHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "olive.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var uses strings.Builder
	uses.WriteString(f.Doc.Text())
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	uses.Write(readme)
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
				return err
			}
			src, err := os.ReadFile(path)
			uses.Write(src)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	text := uses.String()
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() {
			continue
		}
		if !regexp.MustCompile(`\bolive\.` + fd.Name.Name + `\b`).MatchString(text) {
			t.Errorf("olive.%s has no caller in examples/, cmd/, README.md or the package doc", fd.Name.Name)
		}
	}
}
