package cli

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iabc/internal/experiments"
)

// run invokes Main with captured output.
func run(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf strings.Builder
	code = Main(args, strings.NewReader(stdin), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestNoArgsShowsUsage(t *testing.T) {
	code, _, stderr := run(t, "")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "Commands:") {
		t.Errorf("usage missing from stderr: %q", stderr)
	}
}

func TestHelp(t *testing.T) {
	code, stdout, _ := run(t, "", "help")
	if code != 0 || !strings.Contains(stdout, "Commands:") {
		t.Fatalf("help failed: code=%d out=%q", code, stdout)
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, stderr := run(t, "", "frobnicate")
	if code != 2 || !strings.Contains(stderr, "unknown command") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestCheckSatisfied(t *testing.T) {
	code, stdout, _ := run(t, "", "check", "-topo", "core:7,2", "-f", "2")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "SATISFIED") {
		t.Errorf("output: %q", stdout)
	}
}

func TestCheckViolated(t *testing.T) {
	code, stdout, _ := run(t, "", "check", "-topo", "chord:7,2", "-f", "2")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "VIOLATED") || !strings.Contains(stdout, "witness") {
		t.Errorf("output: %q", stdout)
	}
}

func TestCheckAsyncFlag(t *testing.T) {
	code, stdout, _ := run(t, "", "check", "-topo", "complete:5", "-f", "1", "-async")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "VIOLATED") { // K5 fails n > 5f
		t.Errorf("K5 async should be violated: %q", stdout)
	}
	if !strings.Contains(stdout, "screen: corollary2") {
		t.Errorf("quick screen output missing: %q", stdout)
	}
}

func TestCheckBadTopo(t *testing.T) {
	code, _, stderr := run(t, "", "check", "-topo", "nosuch:4", "-f", "1")
	if code != 1 || !strings.Contains(stderr, "unknown topology") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestMaxF(t *testing.T) {
	code, stdout, _ := run(t, "", "maxf", "-topo", "complete:7")
	if code != 0 || !strings.Contains(stdout, "maxf: 2") {
		t.Fatalf("code=%d out=%q", code, stdout)
	}
	code, stdout, _ = run(t, "", "maxf", "-topo", "hypercube:3")
	if code != 0 || !strings.Contains(stdout, "maxf: 0") {
		t.Fatalf("hypercube: code=%d out=%q", code, stdout)
	}
}

// TestCheckStateDir drives the -state-dir flag end to end: first run scans
// and persists, second run is served from the verdict cache with the
// verdict/work lines byte-identical and the provenance on its own line.
func TestCheckStateDir(t *testing.T) {
	dir := t.TempDir()
	code, first, _ := run(t, "", "check", "-topo", "core:7,2", "-f", "2", "-state-dir", dir)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if strings.Contains(first, "state:") {
		t.Errorf("fresh run printed provenance: %q", first)
	}
	code, second, _ := run(t, "", "check", "-topo", "core:7,2", "-f", "2", "-state-dir", dir)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(second, "state: verdict served from cache") {
		t.Errorf("cached run missing provenance line: %q", second)
	}
	// Everything except the provenance line is byte-identical.
	strip := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "state:") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(first) != strip(second) {
		t.Errorf("cached output differs:\nfirst  %q\nsecond %q", first, second)
	}
}

// TestMaxFStateDir: same contract for the sweep — cached rerun, identical
// maxf/work lines, provenance reporting the cache hits.
func TestMaxFStateDir(t *testing.T) {
	dir := t.TempDir()
	code, first, _ := run(t, "", "maxf", "-topo", "complete:7", "-state-dir", dir)
	if code != 0 || !strings.Contains(first, "maxf: 2") {
		t.Fatalf("code=%d out=%q", code, first)
	}
	code, second, _ := run(t, "", "maxf", "-topo", "complete:7", "-state-dir", dir)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(second, "verdict cache hits") {
		t.Errorf("cached sweep missing provenance: %q", second)
	}
	for _, prefix := range []string{"maxf:", "work:"} {
		var a, b string
		for _, line := range strings.Split(first, "\n") {
			if strings.HasPrefix(line, prefix) {
				a = line
			}
		}
		for _, line := range strings.Split(second, "\n") {
			if strings.HasPrefix(line, prefix) {
				b = line
			}
		}
		if a == "" || a != b {
			t.Errorf("%q line differs: first %q, second %q", prefix, a, b)
		}
	}
}

func TestMaxFDisconnected(t *testing.T) {
	edge := "n 4\n0 1\n1 0\n2 3\n3 2\n"
	code, stdout, _ := run(t, edge, "maxf", "-topo", "-")
	if code != 0 || !strings.Contains(stdout, "none") {
		t.Fatalf("code=%d out=%q", code, stdout)
	}
}

func TestRunConverges(t *testing.T) {
	code, stdout, _ := run(t, "", "run",
		"-topo", "core:7,2", "-f", "2", "-faulty", "0,1",
		"-adversary", "extremes", "-rounds", "5000", "-eps", "1e-6")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, stdout)
	}
	if !strings.Contains(stdout, "converged: true") {
		t.Errorf("output: %q", stdout)
	}
	if !strings.Contains(stdout, "validity: held") {
		t.Errorf("validity line missing: %q", stdout)
	}
}

func TestRunWithTraceEvery(t *testing.T) {
	code, stdout, _ := run(t, "", "run",
		"-topo", "complete:4", "-f", "1", "-rounds", "20", "-eps", "0",
		"-adversary", "none", "-trace-every", "5")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "round      0") && !strings.Contains(stdout, "round  ") {
		t.Errorf("trace lines missing: %q", stdout)
	}
}

// TestRunRefusesRemovedEngine pins that the deleted goroutine-per-node
// engine's name is an unknown engine, on run and on sweep.
func TestRunRefusesRemovedEngine(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-topo", "complete:5", "-engine", "concurrent"},
		{"sweep", "-family", "core", "-engine", "concurrent"},
	} {
		code, _, stderr := run(t, "", args...)
		if code != 1 || !strings.Contains(stderr, `unknown engine "concurrent" (sequential|matrix)`) {
			t.Errorf("%v: code=%d stderr=%q", args, code, stderr)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"run", "-topo", "complete:5", "-faulty", "9"},                        // out of range
		{"run", "-topo", "complete:5", "-faulty", "x"},                        // bad id
		{"run", "-topo", "complete:5", "-adversary", "nope"},                  // bad strategy
		{"run", "-topo", "complete:5", "-engine", "quantum"},                  // bad engine
		{"run", "-topo", "ring:6", "-f", "1", "-faulty", "0", "-rounds", "5"}, // in-degree too small
	}
	for _, args := range cases {
		code, _, stderr := run(t, "", args...)
		if code != 1 {
			t.Errorf("args %v: code=%d stderr=%q, want failure", args, code, stderr)
		}
	}
}

func TestRunWithCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	code, stdout, _ := run(t, "", "run",
		"-topo", "complete:4", "-f", "1", "-rounds", "10", "-eps", "0",
		"-adversary", "none", "-csv", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "trace written to") {
		t.Errorf("missing csv confirmation: %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "round,U,mu,range,node0") {
		t.Errorf("csv header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	code, _, _ = run(t, "", "run",
		"-topo", "complete:4", "-f", "1", "-rounds", "2",
		"-csv", filepath.Join(t.TempDir(), "no", "such", "dir", "x.csv"))
	if code != 1 {
		t.Error("unwritable csv path should fail")
	}
}

func TestTopoEdgeList(t *testing.T) {
	code, stdout, _ := run(t, "", "topo", "-topo", "cycle:3")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stdout, "n 3") || !strings.Contains(stdout, "0 1") {
		t.Errorf("edge list: %q", stdout)
	}
}

func TestTopoDOT(t *testing.T) {
	code, stdout, _ := run(t, "", "topo", "-topo", "ring:4", "-format", "dot")
	if code != 0 || !strings.Contains(stdout, "digraph") || !strings.Contains(stdout, "dir=both") {
		t.Fatalf("code=%d out=%q", code, stdout)
	}
	code, _, _ = run(t, "", "topo", "-topo", "ring:4", "-format", "pdf")
	if code != 1 {
		t.Fatalf("bad format accepted")
	}
}

func TestStdinTopology(t *testing.T) {
	edge := "n 4\n" + "0 1\n1 0\n0 2\n2 0\n0 3\n3 0\n1 2\n2 1\n1 3\n3 1\n2 3\n3 2\n"
	code, stdout, _ := run(t, edge, "check", "-topo", "-", "-f", "1")
	if code != 0 || !strings.Contains(stdout, "SATISFIED") {
		t.Fatalf("stdin K4: code=%d out=%q", code, stdout)
	}
}

func TestFileTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := run(t, "", "maxf", "-topo", "file:"+path)
	if code != 0 || !strings.Contains(stdout, "maxf: 0") {
		t.Fatalf("code=%d out=%q", code, stdout)
	}
	code, _, stderr := run(t, "", "maxf", "-topo", "file:/nonexistent/x")
	if code != 1 || stderr == "" {
		t.Fatal("missing file should fail")
	}
}

func TestParseTopoSpecs(t *testing.T) {
	specs := map[string]int{ // spec -> expected n
		"complete:6":       6,
		"core:7,2":         7,
		"hypercube:3":      8,
		"chord:9,2":        9,
		"ring:5":           5,
		"cycle:4":          4,
		"wheel:6":          6,
		"star:4":           4,
		"grid:2,3":         6,
		"torus:3,3":        9,
		"random:10,0.5,42": 10,
	}
	for spec, wantN := range specs {
		g, err := ParseTopo(spec, nil)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if g.N() != wantN {
			t.Errorf("%s: n = %d, want %d", spec, g.N(), wantN)
		}
	}
	bad := []string{"complete", "complete:x", "core:4", "grid:2", "random:10,2,1,9"}
	for _, spec := range bad {
		if _, err := ParseTopo(spec, nil); err == nil {
			t.Errorf("%s: expected error", spec)
		}
	}
}

func TestExperimentsCommandSmoke(t *testing.T) {
	code, stdout, stderr := run(t, "", "experiments")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{"E1 —", "E5 —", "E10 —"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("missing %q in experiments output", want)
		}
	}
}

// TestExperimentsRefutedRowExitsNonZero pins the gate: a refuted row makes
// `iabc experiments` exit 1 naming it, with the tables up to and including
// the refuted experiment still printed.
func TestExperimentsRefutedRowExitsNonZero(t *testing.T) {
	table := func(ok bool) func(context.Context) ([]experiments.Table, error) {
		return func(context.Context) ([]experiments.Table, error) {
			return []experiments.Table{{
				Header: []string{"graph", "satisfied"},
				Rows:   []experiments.Row{{Cells: []string{"K4", "yes"}, OK: true}, {Cells: []string{"K3", "yes"}, OK: ok}},
			}}, nil
		}
	}
	defer func(runAll func(context.Context, io.Writer) error) { runExperiments = runAll }(runExperiments)
	runExperiments = func(ctx context.Context, w io.Writer) error {
		return experiments.Run(ctx, w, []experiments.Experiment{
			{ID: "E1", Title: "held", Run: table(true)}, {ID: "E2", Title: "refuted", Run: table(false)}})
	}
	code, stdout, stderr := run(t, "", "experiments")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if want := "iabc experiments: experiments: E2 row 2 failed: K3 | yes\n"; stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
	if !strings.Contains(stdout, "E1 — held\n") || !strings.Contains(stdout, "E2 — refuted\n") {
		t.Errorf("tables missing from stdout: %q", stdout)
	}
}
