package iabc_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSourcesGofmtClean is the formatting gate: every .go file of the module
// outside testdata must equal its go/format rendering, which is gofmt's
// output, byte for byte.
func TestSourcesGofmtClean(t *testing.T) {
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
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
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", p, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean; run gofmt -w %s", p, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
