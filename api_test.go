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

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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
