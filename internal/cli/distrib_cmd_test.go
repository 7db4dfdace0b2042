package cli

import (
	"regexp"
	"strings"
	"testing"
)

// reportLines extracts the lines the distributed gate diffs: maxf, work, and
// state (resume provenance must also agree between the two paths).
func reportLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "maxf:") || strings.HasPrefix(line, "work:") ||
			strings.HasPrefix(line, "state:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestCoordinateMatchesMaxF is the in-process version of the CI distributed
// gate: `iabc coordinate` with a local worker pool prints maxf/work lines
// byte-identical to `iabc maxf`.
func TestCoordinateMatchesMaxF(t *testing.T) {
	// A seeded random digraph has no symmetry for the checker to exploit, so
	// the scan (5010 fault sets, ~60 ms) outlasts the pool's dial-in and the
	// summary below sees both workers; a chord's scan is over in under 1 ms.
	const topo = "random:18,0.7,3"
	code, oracle, stderr := run(t, "", "maxf", "-topo", topo)
	if code != 0 {
		t.Fatalf("maxf exit = %d, stderr=%q", code, stderr)
	}
	code, distributed, stderr := run(t, "",
		"coordinate", "-topo", topo, "-listen", "127.0.0.1:0", "-pool", "2")
	if code != 0 {
		t.Fatalf("coordinate exit = %d, stderr=%q", code, stderr)
	}
	if got, want := reportLines(distributed), reportLines(oracle); got != want {
		t.Fatalf("distributed report differs:\n%s\nwant:\n%s", got, want)
	}
	if m := regexp.MustCompile(`(?m)^distrib: 2 worker\(s\) joined at 127\.0\.0\.1:\d+, \d+ job\(s\) granted$`).FindString(distributed); m == "" {
		t.Fatalf("missing distrib summary line in:\n%s", distributed)
	}
}

// TestCoordinateSharesStateDir runs a distributed scan into a state dir and
// then a single-process one over the same dir: every verdict must be served
// from the distributed run's durable frontier.
func TestCoordinateSharesStateDir(t *testing.T) {
	dir := t.TempDir()
	code, first, stderr := run(t, "",
		"coordinate", "-topo", "chord:7,2", "-state-dir", dir, "-pool", "2")
	if code != 0 {
		t.Fatalf("coordinate exit = %d, stderr=%q", code, stderr)
	}
	if strings.Contains(first, "state:") {
		t.Fatalf("fresh run claims resumed state:\n%s", first)
	}
	code, second, stderr := run(t, "", "maxf", "-topo", "chord:7,2", "-state-dir", dir)
	if code != 0 {
		t.Fatalf("maxf exit = %d, stderr=%q", code, stderr)
	}
	if !strings.Contains(second, "verdict cache hits") {
		t.Fatalf("single-process run did not hit the distributed run's cache:\n%s", second)
	}
	// Cached verdicts restore the original counters, so the maxf/work lines
	// still agree; only the state provenance line differs by design.
	strip := func(report string) string {
		var keep []string
		for _, line := range strings.Split(report, "\n") {
			if !strings.HasPrefix(line, "state:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if got, want := strip(reportLines(second)), strip(reportLines(first)); got != want {
		t.Fatalf("cached report diverged:\n%s\nwant:\n%s", got, want)
	}
}

func TestWorkRequiresJoin(t *testing.T) {
	code, _, stderr := run(t, "", "work")
	if code != 1 || !strings.Contains(stderr, "-join is required") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}
