package cli

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

func TestRepairCommand(t *testing.T) {
	code, stdout, _ := run(t, "", "repair", "-topo", "chord:7,2", "-f", "2")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "repaired with") || !strings.Contains(stdout, "add ") {
		t.Errorf("output: %q", stdout)
	}
}

func TestRepairCommandNoOp(t *testing.T) {
	code, stdout, _ := run(t, "", "repair", "-topo", "core:7,2", "-f", "2")
	if code != 0 || !strings.Contains(stdout, "already satisfies") {
		t.Fatalf("code=%d out=%q", code, stdout)
	}
}

func TestRepairCommandEmit(t *testing.T) {
	code, stdout, _ := run(t, "", "repair", "-topo", "hypercube:3", "-f", "1", "-emit")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "n 8") {
		t.Errorf("emitted edge list missing: %q", stdout)
	}
}

func TestRepairCommandErrors(t *testing.T) {
	code, _, _ := run(t, "", "repair", "-topo", "complete:3", "-f", "1")
	if code != 1 {
		t.Error("n ≤ 3f should fail")
	}
	code, _, _ = run(t, "", "repair", "-topo", "hypercube:3", "-f", "1", "-max-edges", "1")
	if code != 1 {
		t.Error("tiny budget should fail")
	}
}

func TestSweepCore(t *testing.T) {
	code, stdout, stderr := run(t, "", "sweep", "-family", "core", "-f", "1", "-to", "6", "-rounds", "5000")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if lines[0] != "family,n,f,engine,workers,adversary,satisfied,rounds_to_eps,converged,scenario_final_range_max" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 { // n = 4, 5, 6
		t.Fatalf("rows = %d, want 4:\n%s", len(lines), stdout)
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, "true") {
			t.Errorf("core row should satisfy and converge: %q", line)
		}
		if !strings.Contains(line, "extremes") {
			t.Errorf("adversary column missing: %q", line)
		}
	}
}

// TestSweepStateDirSingleAdversary pins -state-dir on a sweep without
// -adversaries or -batch: the run must write its scenario records, and a
// second run over the same directory must resume from them, both printing
// the stateless run's CSV byte for byte.
func TestSweepStateDirSingleAdversary(t *testing.T) {
	args := []string{"sweep", "-family", "core", "-f", "1", "-to", "6", "-rounds", "5000"}
	code, want, stderr := run(t, "", args...)
	if code != 0 {
		t.Fatalf("stateless exit = %d, stderr = %q", code, stderr)
	}
	dir := t.TempDir()
	records := func() int {
		n := 0
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				n++
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var counts []int
	for pass := range 2 {
		code, got, stderr := run(t, "", append(args, "-state-dir", dir)...)
		if code != 0 {
			t.Fatalf("pass %d exit = %d, stderr = %q", pass, code, stderr)
		}
		if got != want {
			t.Errorf("pass %d CSV differs from the stateless run:\nwant %q\ngot  %q", pass, want, got)
		}
		counts = append(counts, records())
	}
	if counts[0] == 0 {
		t.Fatal("-state-dir holds no records after the sweep")
	}
	if counts[1] != counts[0] {
		t.Errorf("resumed sweep wrote new records: %d, then %d", counts[0], counts[1])
	}
}

// TestSweepResumeRandomizedAdversary pins resume under a randomized
// adversary: a sweep cut short at -to 8 and resumed from its -state-dir up
// to -to 12 must print the uninterrupted sweep's CSV byte for byte. The
// resumed points draw no noise, so this holds only when every point seeds
// its own strategy rather than sharing one stream across the range.
func TestSweepResumeRandomizedAdversary(t *testing.T) {
	args := []string{"sweep", "-family", "chord", "-f", "1", "-from", "4", "-adversary", "noise", "-eps", "1e-9"}
	code, want, stderr := run(t, "", append(args, "-to", "12")...)
	if code != 0 {
		t.Fatalf("uninterrupted exit = %d, stderr = %q", code, stderr)
	}
	dir := t.TempDir()
	if code, _, stderr := run(t, "", append(args, "-to", "8", "-state-dir", dir)...); code != 0 {
		t.Fatalf("prefix exit = %d, stderr = %q", code, stderr)
	}
	code, got, stderr := run(t, "", append(args, "-to", "12", "-state-dir", dir)...)
	if code != 0 {
		t.Fatalf("resumed exit = %d, stderr = %q", code, stderr)
	}
	if got != want {
		t.Errorf("resumed CSV differs from the uninterrupted sweep:\nwant %q\ngot  %q", want, got)
	}
}

func TestSweepAdversaryBatch(t *testing.T) {
	code, stdout, stderr := run(t, "", "sweep", "-family", "core", "-f", "1", "-to", "5",
		"-rounds", "5000", "-adversaries", "extremes,hug-high,insider-high")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 7 { // header + (n=4,5) × 3 adversaries
		t.Fatalf("rows = %d, want 7:\n%s", len(lines), stdout)
	}
	for _, name := range []string{"extremes", "hug-high", "insider-high"} {
		found := 0
		for _, line := range lines[1:] {
			cols := strings.Split(line, ",")
			if cols[5] == name {
				found++
				if cols[8] != "true" {
					t.Errorf("%s row did not converge: %q", name, line)
				}
				if cols[3] != "sequential" || cols[4] != "1" {
					t.Errorf("engine/workers columns wrong: %q", line)
				}
			}
		}
		if found != 2 {
			t.Errorf("adversary %s: %d rows, want 2", name, found)
		}
	}
}

// TestSweepWorkersAndEngines drives the scenario batch through every pooled
// engine and a parallel worker count; rows must converge identically.
func TestSweepWorkersAndEngines(t *testing.T) {
	var ref string
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sequential-w1", nil},
		{"sequential-w4", []string{"-workers", "4"}},
		{"sequential-auto", []string{"-workers", "0"}},
		{"matrix", []string{"-engine", "matrix"}},
		{"matrix-w4", []string{"-engine", "matrix", "-workers", "4"}},
	} {
		args := append([]string{"sweep", "-family", "core", "-f", "1", "-to", "5",
			"-rounds", "5000", "-adversaries", "extremes,hug-high,insider-high"}, tc.args...)
		code, stdout, stderr := run(t, "", args...)
		if code != 0 {
			t.Fatalf("%s: exit = %d, stderr = %q", tc.name, code, stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		if len(lines) != 7 { // header + (n=4,5) × 3 adversaries
			t.Fatalf("%s: rows = %d, want 7:\n%s", tc.name, len(lines), stdout)
		}
		// rounds_to_eps/converged must agree across engines and worker
		// counts (bit-identical traces): compare rows minus the
		// engine/workers columns.
		var canon []string
		for _, line := range lines[1:] {
			cols := strings.Split(line, ",")
			canon = append(canon, strings.Join(append(cols[:3:3], cols[5:]...), ","))
		}
		joined := strings.Join(canon, "\n")
		if ref == "" {
			ref = joined
		} else if joined != ref {
			t.Errorf("%s: results differ from reference:\n%s\nvs\n%s", tc.name, joined, ref)
		}
	}
}

// TestSweepComposedBatch covers -batch: matrix-replay vectors per scenario
// row, composing with -adversaries.
func TestSweepComposedBatch(t *testing.T) {
	code, stdout, stderr := run(t, "", "sweep", "-family", "core", "-f", "1", "-to", "5",
		"-rounds", "5000", "-adversaries", "extremes,hug-high", "-batch", "4", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 5 { // header + (n=4,5) × 2 adversaries
		t.Fatalf("rows = %d, want 5:\n%s", len(lines), stdout)
	}
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if cols[3] != "matrix" {
			t.Errorf("-batch must auto-select the matrix engine: %q", line)
		}
		if cols[9] == "" {
			t.Errorf("per-row scenario range missing: %q", line)
		}
	}
}

func TestSweepAdversariesFlagConflicts(t *testing.T) {
	// -batch is the one replay flag; the flag package rejects -scenarios.
	code, _, stderr := run(t, "", "sweep", "-family", "core", "-scenarios", "1")
	if code != 1 || !strings.Contains(stderr, "flag provided but not defined: -scenarios") {
		t.Errorf("-scenarios should be an unknown flag: code=%d stderr=%q", code, stderr)
	}
	code, _, stderr = run(t, "", "sweep", "-family", "core", "-batch", "2", "-engine", "sequential")
	if code != 1 || !strings.Contains(stderr, "matrix") {
		t.Errorf("-batch with a non-matrix engine should be rejected: code=%d stderr=%q", code, stderr)
	}
	code, _, _ = run(t, "", "sweep", "-family", "core", "-adversaries", "extremes,warp-core")
	if code != 1 {
		t.Error("unknown adversary in -adversaries should fail")
	}
}

// TestSweepMatrixBatch covers -batch alone (no -adversaries): the base
// adversary's scenario is replayed, on the auto-selected matrix engine.
func TestSweepMatrixBatch(t *testing.T) {
	code, stdout, stderr := run(t, "", "sweep", "-family", "core", "-f", "1", "-to", "5",
		"-rounds", "5000", "-batch", "4")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 10 || cols[9] == "" {
			t.Errorf("scenario range column missing in %q", line)
		}
		if cols[3] != "matrix" {
			t.Errorf("-batch must auto-select the matrix engine: %q", line)
		}
	}
}

func TestSweepEngineFlag(t *testing.T) {
	code, stdout, stderr := run(t, "", "sweep", "-family", "core", "-f", "1", "-to", "4",
		"-rounds", "5000", "-engine", "matrix")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "true") {
		t.Errorf("core(4,1) should converge: %q", stdout)
	}
	code, _, _ = run(t, "", "sweep", "-family", "core", "-engine", "warp")
	if code != 1 {
		t.Error("unknown engine should fail")
	}
}

func TestSweepChordShowsViolations(t *testing.T) {
	code, stdout, _ := run(t, "", "sweep", "-family", "chord", "-f", "2", "-from", "7", "-to", "9", "-rounds", "100")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "chord,7,2,sequential,1,extremes,false") {
		t.Errorf("chord(7,2) should report false: %q", stdout)
	}
}

// TestSweepNamesFailingScenario pins the CLI-level error contract: a
// failing scenario makes `iabc sweep` exit non-zero with an error naming
// the scenario's index and name — identically on every engine. The failure
// vector is a per-scenario validation error (-rounds 0 fails each derived
// config's MaxRounds check), which the sweep wraps with the scenario label
// before the CLI surfaces it.
func TestSweepNamesFailingScenario(t *testing.T) {
	for _, engine := range []string{"sequential", "matrix"} {
		t.Run(engine, func(t *testing.T) {
			code, _, stderr := run(t, "", "sweep", "-family", "core", "-f", "1", "-to", "4",
				"-adversaries", "extremes,hug-high", "-engine", engine, "-rounds", "0")
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (stderr %q)", code, stderr)
			}
			if !strings.Contains(stderr, "scenario 0 (extremes)") {
				t.Errorf("stderr does not name the failing scenario index and name: %q", stderr)
			}
		})
	}
	// The single-scenario -batch replay path reports through the same
	// contract.
	code, _, stderr := run(t, "", "sweep", "-family", "core", "-f", "1", "-to", "4",
		"-batch", "2", "-rounds", "0")
	if code != 1 || !strings.Contains(stderr, "scenario 0 (extremes)") {
		t.Errorf("-batch path: code=%d stderr=%q", code, stderr)
	}
}

func TestSweepErrors(t *testing.T) {
	code, _, _ := run(t, "", "sweep", "-family", "klein-bottle")
	if code != 1 {
		t.Error("unknown family should fail")
	}
	code, _, _ = run(t, "", "sweep", "-family", "core", "-from", "9", "-to", "4")
	if code != 1 {
		t.Error("empty range should fail")
	}
	code, _, _ = run(t, "", "sweep", "-family", "core", "-adversary", "bogus")
	if code != 1 {
		t.Error("unknown adversary should fail")
	}
}
