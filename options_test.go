package cacheautomaton

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryOptionIsSetSomewhere keeps the option structs to the knobs
// somebody turns: every field of the six configuration types must be set
// — as a composite-literal key, or by assignment through a variable of
// the type — somewhere in the module. Test files count (a knob only tests
// turn, like cluster.Config.RPC, is a seam); assignments in the declaring
// package's own non-test code do not (that is where defaults are filled
// in). A field nobody sets has one value in use: make it a constant.
func TestEveryOptionIsSetSomewhere(t *testing.T) {
	const module = "cacheautomaton"
	typeIn := map[string]string{ // import path → option type
		module:                         "Options",
		module + "/internal/server":    "Config",
		module + "/internal/cluster":   "Config",
		module + "/internal/mapper":    "Config",
		module + "/internal/partition": "Options",
		module + "/internal/regexc":    "Options",
	}

	type source struct {
		file *ast.File
		pkg  string // import path of the directory
		test bool
	}
	var sources []source
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		sources = append(sources, source{f, path.Join(module, filepath.ToSlash(filepath.Dir(p))), strings.HasSuffix(p, "_test.go")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	unset := map[string]map[string]bool{} // import path → fields nobody has set yet
	for _, src := range sources {
		if src.test || typeIn[src.pkg] == "" {
			continue
		}
		ast.Inspect(src.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typeIn[src.pkg] {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				unset[src.pkg] = map[string]bool{}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						unset[src.pkg][name.Name] = true
					}
				}
			}
			return false
		})
	}
	for pkg, typ := range typeIn {
		if len(unset[pkg]) == 0 {
			t.Fatalf("%s: found no struct %s; update this test's list of option types", pkg, typ)
		}
	}

	for _, src := range sources {
		imports := map[string]string{} // name in this file → import path
		for _, spec := range src.file.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		// optionType resolves a type expression to the package whose option
		// struct it names ("" for anything else), looking through & and *.
		optionType := func(e ast.Expr) string {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			switch typ := e.(type) {
			case *ast.Ident:
				if typeIn[src.pkg] == typ.Name && !strings.HasSuffix(src.file.Name.Name, "_test") {
					return src.pkg
				}
			case *ast.SelectorExpr:
				if x, ok := typ.X.(*ast.Ident); ok && typeIn[imports[x.Name]] == typ.Sel.Name {
					return imports[x.Name]
				}
			}
			return ""
		}
		literalOf := func(e ast.Expr) string {
			if amp, ok := e.(*ast.UnaryExpr); ok {
				e = amp.X
			}
			if lit, ok := e.(*ast.CompositeLit); ok && lit.Type != nil {
				return optionType(lit.Type)
			}
			return ""
		}
		vars := map[string]string{} // variable, parameter or field name → the option struct it holds
		ast.Inspect(src.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if pkg := literalOf(n); pkg != "" {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								delete(unset[pkg], key.Name)
							}
						}
					}
				}
			case *ast.Field:
				if pkg := optionType(n.Type); pkg != "" {
					for _, name := range n.Names {
						vars[name.Name] = pkg
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if pkg := optionType(n.Type); n.Type != nil && pkg != "" {
						vars[name.Name] = pkg
					} else if i < len(n.Values) && literalOf(n.Values[i]) != "" {
						vars[name.Name] = literalOf(n.Values[i])
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && literalOf(n.Rhs[i]) != "" {
						vars[id.Name] = literalOf(n.Rhs[i])
					}
				}
			}
			return true
		})
		ast.Inspect(src.file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				holder := ""
				switch x := sel.X.(type) {
				case *ast.Ident:
					holder = x.Name
				case *ast.SelectorExpr: // s.cfg.Field
					holder = x.Sel.Name
				}
				if pkg := vars[holder]; pkg != "" && (src.test || pkg != src.pkg) {
					delete(unset[pkg], sel.Sel.Name)
				}
			}
			return true
		})
	}

	var idle []string
	for pkg, fields := range unset {
		for field := range fields {
			idle = append(idle, pkg+"."+typeIn[pkg]+"."+field)
		}
	}
	sort.Strings(idle)
	for _, name := range idle {
		t.Errorf("%s is set nowhere: an option with one value in use is a constant", name)
	}
}
