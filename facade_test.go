package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers keeps repro.go to the names its callers use.
// An exported name passes when it is referenced as repro.Name in bench/,
// examples/, cmd/ or a root test file, is used by another root-package
// file, or is named in the signature of a declaration that passes.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "repro.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// signature maps each exported name to the identifiers its function
	// signature names (nil for types, constants and variables).
	signature := map[string][]string{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				signature[d.Name.Name] = identsIn(d.Type)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						signature[s.Name.Name] = nil
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							signature[n.Name] = nil
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, root := range []string{"bench", "examples", "cmd", "."} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || path == "repro.go" {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			inPackage := root == "." && f.Name.Name == "repro"
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "repro" {
						used[n.Sel.Name] = true
					}
				case *ast.Ident:
					if inPackage {
						used[n.Name] = true
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

	kept := map[string]bool{}
	var grow func(name string)
	grow = func(name string) {
		if _, ok := signature[name]; !ok || kept[name] {
			return
		}
		kept[name] = true
		for _, id := range signature[name] {
			grow(id)
		}
	}
	for name := range used {
		grow(name)
	}
	var dead []string
	for name := range signature {
		if !kept[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("repro.go exports %d names with no caller: %s", len(dead), strings.Join(dead, " "))
	}
}

// identsIn lists every identifier under n.
func identsIn(n ast.Node) []string {
	var ids []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids = append(ids, id.Name)
		}
		return true
	})
	return ids
}
