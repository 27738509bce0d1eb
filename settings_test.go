package msgroofline

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

// settingRoots are the trees whose non-test code counts as setting a
// field; fields are declared under internal/.
var settingRoots = []string{"internal", "cmd", "examples", "benchmark"}

// unsetAllowed lists exported fields that no program sets on purpose,
// each with its reason, as "package.Type.Field" or "package.Type" for
// every field of the type.
var unsetAllowed = map[string]string{
	"conformance.Options.Kernels":   "the harness's own test knob: filters cases for focused test runs",
	"conformance.Options.Unordered": "the harness's own test knob: the mutation that proves the MPI oracles catch reordering",
	"pointcache.Stats":              "the inert point-cache shim always reports zero counters",
}

// TestEveryExportedFieldIsSet is a ratchet on settings: an exported
// field of an exported struct in non-test internal/ code must be set
// somewhere in non-test code, or it is a setting no program uses and
// should be a constant (or go). A field name counts as set when it is
// a key of a composite literal, or when it appears anywhere in the
// selector chain on the left of an assignment, an increment or
// decrement, or an address-of. Matching is by field name, so a name
// set on any struct counts for all. A field set only by an unkeyed
// composite literal is flagged: key the literal.
func TestEveryExportedFieldIsSet(t *testing.T) {
	type field struct {
		typ, name string // package.Type, Field
		pos       token.Position
	}
	var fields []field
	set := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range settingRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if root == "internal" {
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.TYPE {
						continue
					}
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						st, ok := ts.Type.(*ast.StructType)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						for _, fl := range st.Fields.List {
							for _, name := range fl.Names {
								if name.IsExported() {
									fields = append(fields, field{f.Name.Name + "." + ts.Name.Name, name.Name, fset.Position(name.Pos())})
								}
							}
						}
					}
				}
			}
			markSet(f, set)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no exported struct fields under internal/")
	}
	var unset []string
	for _, f := range fields {
		id := f.typ + "." + f.name
		if !set[f.name] && unsetAllowed[id] == "" && unsetAllowed[f.typ] == "" {
			unset = append(unset, f.pos.String()+": "+id)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d exported fields are never set outside tests; make each a constant or delete it:\n%s",
			len(unset), strings.Join(unset, "\n"))
	}
}

// markSet records in set every field name file f sets.
func markSet(f *ast.File, set map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				set[id.Name] = true
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					markChain(lhs, set)
				}
			}
		case *ast.IncDecStmt:
			markChain(n.X, set)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markChain(n.X, set)
			}
		}
		return true
	})
}

// markChain records every selected name along the selector chain of e,
// through index, dereference and parentheses, up to its root.
func markChain(e ast.Expr, set map[string]bool) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			set[x.Sel.Name] = true
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}
