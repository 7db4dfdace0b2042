package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current RunAll output")

var goldenPath = filepath.Join("testdata", "experiments.golden")

// TestRunAllGolden is the regression gate: RunAll's output must equal the
// committed golden byte for byte (every title, header, cell and column
// width), no row may be refuted, and a second run must reproduce the first.
func TestRunAllGolden(t *testing.T) {
	var first, second bytes.Buffer
	if err := RunAll(context.Background(), &first); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, first.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), want) {
		t.Errorf("RunAll output drifted from %s (rerun with -update if intended):\n%s",
			goldenPath, firstDiff(string(want), first.String()))
	}
	if err := RunAll(context.Background(), &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("two consecutive runs differ:\n%s", firstDiff(first.String(), second.String()))
	}
}

// firstDiff locates the first differing line.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestRunFailsOnRefutedRow pins the gate's failure mode: a row with OK
// false stops the run after its experiment's tables are written and is
// named in the error; experiments after it do not run.
func TestRunFailsOnRefutedRow(t *testing.T) {
	held := func(context.Context) ([]Table, error) {
		return []Table{{Header: []string{"claim"}, Rows: []Row{row(true, "holds")}}}, nil
	}
	refuted := func(context.Context) ([]Table, error) {
		return []Table{
			{Header: []string{"graph", "satisfied"}, Rows: []Row{row(true, "K4", true)}},
			{Header: []string{"graph", "satisfied"}, Rows: []Row{row(true, "K7", true), row(false, "K6", true)}},
		}, nil
	}
	unreached := func(context.Context) ([]Table, error) {
		t.Error("ran an experiment after a refuted row")
		return nil, nil
	}
	var out bytes.Buffer
	err := Run(context.Background(), &out, []Experiment{{"E1", "first", held}, {"E2", "second", refuted}, {"E3", "third", unreached}})
	if err == nil || err.Error() != "experiments: E2 row 3 failed: K6 | yes" {
		t.Errorf("error = %v", err)
	}
	want := "E1 — first\nclaim\nholds\n\nE2 — second\ngraph  satisfied\nK4     yes\ngraph  satisfied\nK7     yes\nK6     yes\n\n"
	if out.String() != want {
		t.Errorf("output = %q, want %q", out.String(), want)
	}
}

// checkExperiment runs one experiment of All() on its own, so a failure
// names the experiment that broke and `-run TestE7` iterates on one: no row
// may be refuted and its tables must appear verbatim in the golden.
func checkExperiment(t *testing.T, id string) {
	t.Helper()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if e.ID != id {
			continue
		}
		var out bytes.Buffer
		if err := Run(context.Background(), &out, []Experiment{e}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(golden, out.Bytes()) {
			t.Errorf("%s drifted from %s:\n%s", id, goldenPath, out.String())
		}
		return
	}
	t.Fatalf("no experiment %s in All()", id)
}

func TestE1Theorem1Attack(t *testing.T)             { checkExperiment(t, "E1") }
func TestE2Corollary2(t *testing.T)                 { checkExperiment(t, "E2") }
func TestE3Corollary3(t *testing.T)                 { checkExperiment(t, "E3") }
func TestE4Hypercube(t *testing.T)                  { checkExperiment(t, "E4") }
func TestE5CoreNetwork(t *testing.T)                { checkExperiment(t, "E5") }
func TestE6Chord(t *testing.T)                      { checkExperiment(t, "E6") }
func TestE7ConvergenceRate(t *testing.T)            { checkExperiment(t, "E7") }
func TestE8Async(t *testing.T)                      { checkExperiment(t, "E8") }
func TestE9RuleAblation(t *testing.T)               { checkExperiment(t, "E9") }
func TestE10Scaling(t *testing.T)                   { checkExperiment(t, "E10") }
func TestE11ConjectureHoldsForF1AndF2(t *testing.T) { checkExperiment(t, "E11") }
func TestE12Density(t *testing.T)                   { checkExperiment(t, "E12") }
func TestE13Connectivity(t *testing.T)              { checkExperiment(t, "E13") }
func TestE14ReducedCrossCheck(t *testing.T)         { checkExperiment(t, "E14") }
func TestE15Delayed(t *testing.T)                   { checkExperiment(t, "E15") }

func TestMatchingsEnumeration(t *testing.T) {
	if got := len(matchings(7, 3)); got != 105 {
		t.Errorf("matchings(7,3) = %d, want 105", got)
	}
	if got := len(matchings(7, 2)); got != 105 {
		t.Errorf("matchings(7,2) = %d, want 105", got)
	}
	if got := len(matchings(4, 2)); got != 3 {
		t.Errorf("matchings(4,2) = %d, want 3 (perfect matchings of K4)", got)
	}
	// Every matching must have disjoint endpoints.
	for _, m := range matchings(6, 3) {
		seen := map[int]bool{}
		for _, e := range m {
			if seen[e[0]] || seen[e[1]] {
				t.Fatalf("matching %v reuses a vertex", m)
			}
			seen[e[0]], seen[e[1]] = true, true
		}
	}
	if got := len(matchings(6, 3)); got != 15 {
		t.Errorf("matchings(6,3) = %d, want 15", got)
	}
}
