package iabc_test

// API stability gates:
//
//   - TestAPISurfaceGolden regenerates the public surface of the root iabc
//     package and diffs it against the committed api/iabc.txt — an
//     accidental signature change fails the build until the golden is
//     regenerated deliberately (`go generate .`).
//   - TestFacadeOnlyConsumers enforces the facade boundary: the CLI, the
//     examples and the paper experiments — the in-tree stand-ins for
//     external programs — must not import internal/sim, internal/condition,
//     or internal/async directly; everything they need goes through the iabc
//     package.
//   - TestInternalFuncsHaveCallers keeps dead code from regrowing: every
//     exported package-level func under internal/ must have a caller outside
//     its own package's tests.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"iabc/internal/apigen"
)

func TestAPISurfaceGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("api", "iabc.txt"))
	if err != nil {
		t.Fatalf("reading committed surface: %v", err)
	}
	got, err := apigen.Surface(".")
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Fatalf("api/iabc.txt is stale — the public surface changed.\n"+
			"If the change is intentional, run 'go generate .' and commit the result.\n"+
			"diff (committed vs tree):\n%s", lineDiff(string(want), got))
	}
}

// lineDiff renders a minimal line diff good enough to locate the drift.
func lineDiff(want, got string) string {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	var b strings.Builder
	max := len(wantLines)
	if len(gotLines) > max {
		max = len(gotLines)
	}
	for i := 0; i < max; i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			b.WriteString("- " + w + "\n+ " + g + "\n")
		}
	}
	return b.String()
}

// bannedImports are the implementation packages consumers must reach only
// through the facade.
var bannedImports = []string{
	"iabc/internal/sim",
	"iabc/internal/condition",
	"iabc/internal/async",
}

// allowedImports is the complete list of exceptions, one banned package per
// file, each with the facade gap that forces it.
var allowedImports = map[string]string{
	// condition.CheckViaReducedGraphs / SampleReducedGraphs: the
	// reduced-graph decider E14 cross-validates the checker against, which
	// the facade does not export.
	filepath.Join("internal", "experiments", "e14_reduced.go"): "iabc/internal/condition",
	// sim.Config.Stale: the bounded-staleness model E15 measures, which the
	// facade does not expose.
	filepath.Join("internal", "experiments", "e15_delayed.go"): "iabc/internal/sim",
}

func TestFacadeOnlyConsumers(t *testing.T) {
	consumers := []string{
		filepath.Join("internal", "cli"),
		filepath.Join("internal", "experiments"),
		"examples",
		filepath.Join("cmd", "iabc"),
	}
	fset := token.NewFileSet()
	for _, root := range consumers {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range file.Imports {
				ipath := strings.Trim(imp.Path.Value, `"`)
				for _, banned := range bannedImports {
					if ipath == banned && allowedImports[path] != ipath {
						t.Errorf("%s imports %s directly; consumers go through the iabc facade", path, ipath)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// uncalledFuncs lists the exported package-level funcs under internal/ that
// may lack a caller outside their own package's tests, each with the reason
// it stays.
var uncalledFuncs = map[string]string{
	"iabc/internal/analysis.AlphaAsync": "the §7 α; ROADMAP item 5's contraction auditor compares cluster rounds against it",
}

// TestInternalFuncsHaveCallers requires every exported package-level func
// declared in a non-test file under internal/ to be named by a non-test file
// of the repository (its own package's included, its own declaration
// excluded) or by a test file of another package. A func only its own
// package's tests call is dead code: delete it with those tests, or list it
// in uncalledFuncs with the reason it stays.
func TestInternalFuncsHaveCallers(t *testing.T) {
	type goFile struct {
		dir  string // slash-separated, relative to the module root
		test bool
		ast  *ast.File
	}
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(filepath.Dir(p)), test: strings.HasSuffix(p, "_test.go"), ast: file})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: "import path.Name" of each exported package-level func
	// in a non-test file under internal/.
	declared := map[string]bool{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared[importPath(f.dir)+"."+fn.Name.Name] = true
			}
		}
	}

	// Callers: a qualified pkg.Name from another directory (test or not), or
	// a bare Name in a non-test file of the declaring directory outside the
	// func's own declaration.
	called := map[string]bool{}
	for _, f := range files {
		local := map[string]string{} // import name → import path
		for _, imp := range f.ast.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			name := path.Base(ipath) // every package here is named after its directory
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = ipath
		}
		self := importPath(f.dir)
		for _, decl := range f.ast.Decls {
			var own string // the package-level func being walked, if any
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				own = fn.Name.Name
			}
			skip := map[*ast.Ident]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					skip[n.Name] = true
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ipath, ok := local[x.Name]; ok && ipath != self {
							called[ipath+"."+n.Sel.Name] = true
						}
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						skip[k] = true // a struct field key, not a reference
					}
				case *ast.Ident:
					if !f.test && !skip[n] && n.Name != own {
						called[self+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for fn := range declared {
		if !called[fn] && uncalledFuncs[fn] == "" {
			dead = append(dead, fn)
		}
	}
	sort.Strings(dead)
	for _, fn := range dead {
		t.Errorf("%s has no caller outside its own package's tests: delete it, or list it in uncalledFuncs with a reason", fn)
	}
	for fn := range uncalledFuncs {
		switch {
		case !declared[fn]:
			t.Errorf("uncalledFuncs lists %s, which is not declared", fn)
		case called[fn]:
			t.Errorf("uncalledFuncs lists %s, which now has a caller: drop the entry", fn)
		}
	}
}

// importPath returns the import path of the module directory dir.
func importPath(dir string) string {
	if dir == "." {
		return "iabc"
	}
	return "iabc/" + dir
}
