package iabc_test

// Kill-mid-scan resume: the tentpole integration test. A subprocess starts a
// MaxF sweep over a state directory and is SIGKILLed mid-flight — a real
// process death, not a context cancel — then the scan is restarted in this
// process with the same directory. The resumed run must settle on the same
// best f with stats totals identical to an uninterrupted run, and a second
// full run of the settled graph must be served from the verdict cache.

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"iabc"
	"iabc/internal/topology"
)

// stateKillTopo is the kill-resume workload: large enough that the f sweep
// runs for seconds (so the kill lands mid-scan and the 1s checkpoint flush
// has fired), small enough to finish promptly when resumed. A seeded random
// digraph, because the checker has no symmetry to exploit on one: it scans
// all 17 219 fault sets (~1.8 s), where chord(20,2) now takes 0.1 s.
func stateKillTopo(t testing.TB) *iabc.Graph {
	t.Helper()
	g, err := topology.RandomDigraph(21, 0.7, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStateDirKillHelper is the subprocess body, inert in a normal test run.
func TestStateDirKillHelper(t *testing.T) {
	dir := os.Getenv("IABC_STATE_KILL_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestStateDirKillResumeEquivalence")
	}
	_, _, err := iabc.MaxFWithStats(context.Background(), stateKillTopo(t), iabc.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
}

// waitForEntry polls for any file under dir/sub, returning false on timeout.
func waitForEntry(dir, sub string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err == nil && len(entries) > 0 {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

func TestStateDirKillResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/resume integration test")
	}
	g := stateKillTopo(t)
	bestBase, statsBase, err := iabc.MaxFWithStats(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestStateDirKillHelper")
	cmd.Env = append(os.Environ(), "IABC_STATE_KILL_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the scan is demonstrably in flight (the first verdict
	// record appears once the first check settles), give the time-based
	// checkpoint flush a chance to land a mid-check checkpoint too, then kill
	// without ceremony.
	if !waitForEntry(dir, "verdict", 30*time.Second) {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("subprocess never wrote a verdict record")
	}
	waitForEntry(dir, "checkpoint", 2*time.Second)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if err == nil {
		// The scan finished before the kill landed; the resume below then
		// degenerates to a pure cache replay, which the test still verifies.
		t.Log("subprocess completed before SIGKILL; verifying cache path")
	} else if !errors.As(err, &exit) {
		t.Fatal(err)
	}

	best, stats, err := iabc.MaxFWithStats(context.Background(), g, iabc.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if best != bestBase {
		t.Fatalf("resumed best=%d, uninterrupted best=%d", best, bestBase)
	}
	if stats.FaultSetsResumed == 0 && stats.CacheHits == 0 {
		t.Fatal("resumed run inherited nothing from the killed process")
	}
	got := stats
	got.CacheHits, got.FaultSetsResumed = 0, 0
	if got != statsBase {
		t.Fatalf("resumed stats differ from uninterrupted:\nbase    %+v\nresumed %+v", statsBase, got)
	}

	// The sweep settled: a fresh run over the same directory is answered
	// entirely from the verdict cache, with identical totals.
	best2, stats2, err := iabc.MaxFWithStats(context.Background(), g, iabc.WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if best2 != bestBase || stats2.CacheHits != stats2.ChecksRun || stats2.CacheHits == 0 {
		t.Fatalf("settled graph not served from cache: best=%d stats=%+v", best2, stats2)
	}
}

// TestWithBackendCheckResume covers the facade's backend plumbing without
// subprocesses: Check over an injected MemBackend caches its verdict, and
// WithStateDir/WithBackend together are rejected.
func TestWithBackendCheckResume(t *testing.T) {
	g := facadeGraph(t)
	mem := iabc.NewMemBackend()
	first, err := iabc.Check(context.Background(), g, 2, iabc.WithBackend(mem))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first check must not be a cache hit")
	}
	second, err := iabc.Check(context.Background(), g, 2, iabc.WithBackend(mem))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second check should hit the verdict cache")
	}
	second.CacheHit = false
	if second != first {
		t.Fatalf("cached check differs:\nfirst  %+v\nsecond %+v", first, second)
	}

	if _, err := iabc.Check(context.Background(), g, 2,
		iabc.WithBackend(mem), iabc.WithStateDir(t.TempDir())); err == nil {
		t.Fatal("WithBackend + WithStateDir should be rejected")
	}
	if _, err := iabc.Check(context.Background(), g, 2, iabc.WithStateDir("")); err == nil {
		t.Fatal(`WithStateDir("") should be rejected`)
	}
}
