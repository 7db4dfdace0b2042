package condition

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"iabc/internal/topology"
)

func TestCheckParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(5)
		f := 1 + rng.Intn(2)
		g, err := topology.RandomDigraph(n, 0.4+0.4*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Check(g, f)
		if err != nil {
			t.Fatal(err)
		}
		par, err := CheckScan(context.Background(), g, f, SyncThreshold(f), ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Satisfied != par.Satisfied {
			t.Fatalf("n=%d f=%d: verdict mismatch seq=%v par=%v", n, f, seq.Satisfied, par.Satisfied)
		}
		if !seq.Satisfied {
			// Deterministic witness: same fault set, same L and R.
			if !seq.Witness.F.Equal(par.Witness.F) ||
				!seq.Witness.L.Equal(par.Witness.L) ||
				!seq.Witness.R.Equal(par.Witness.R) {
				t.Fatalf("witness mismatch:\nseq %v\npar %v", seq.Witness, par.Witness)
			}
			if err := par.Witness.Verify(g, f, SyncThreshold(f)); err != nil {
				t.Fatalf("parallel witness invalid: %v", err)
			}
		}
	}
}

func TestCheckParallelPaperCases(t *testing.T) {
	c7, err := topology.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckScan(context.Background(), c7, 2, SyncThreshold(2), ScanOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatal("chord(7,2) should be violated")
	}
	cn, err := topology.CoreNetwork(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err = CheckScan(context.Background(), cn, 3, SyncThreshold(3), ScanOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("core(10,3) should satisfy; witness %v", res.Witness)
	}
	if res.FaultSetsExamined == 0 || res.CandidatesExamined == 0 {
		t.Error("work counters should be positive")
	}
}

func TestCheckParallelDefaultsAndSmallInputs(t *testing.T) {
	g := mustComplete(t, 4)
	// workers <= 0 → GOMAXPROCS; n < 8 → sequential fallback. Both paths
	// must agree with Check.
	for _, workers := range []int{-1, 0, 1, 2, 16} {
		res, err := CheckScan(context.Background(), g, 1, SyncThreshold(1), ScanOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfied {
			t.Fatalf("workers=%d: K4 f=1 should satisfy", workers)
		}
	}
	if _, err := CheckScan(context.Background(), g, -1, SyncThreshold(-1), ScanOptions{Workers: 2}); err == nil {
		t.Error("negative f should error")
	}
}

// TestCheckScanCancellation pins the context contract at both worker
// counts: a canceled scan stops at fault-set granularity, wraps
// context.Canceled with the progress made, and leaves the work counters
// populated.
func TestCheckScanCancellation(t *testing.T) {
	g, err := topology.CoreNetwork(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run("pre-canceled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := CheckScan(ctx, g, 2, SyncThreshold(2), ScanOptions{Workers: workers})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
			}
			if !strings.Contains(err.Error(), "canceled after") {
				t.Errorf("workers=%d: error does not report progress: %v", workers, err)
			}
			if res.Satisfied {
				t.Errorf("workers=%d: canceled scan must not report Satisfied", workers)
			}
		})
		t.Run("mid-scan", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var fired atomic.Int64
			progress := func(p Progress) {
				if p.FaultSetsTotal == 0 {
					t.Error("fault-set total missing for n ≤ 62")
				}
				if fired.Add(1) == 3 {
					cancel()
				}
			}
			_, err := CheckScan(ctx, g, 2, SyncThreshold(2), ScanOptions{Workers: workers, OnProgress: progress})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
			}
			total := NumFaultSets(g.N(), 2)
			if n := fired.Load(); n >= total {
				t.Errorf("workers=%d: scan processed all %d fault sets despite cancellation", workers, n)
			}
		})
	}
}

// TestCheckScanProgress checks the streaming counters: one snapshot per
// completed span, each just past an orbit representative, reaching the exact
// Σ C(n,k) total on a satisfied scan. K9's fault sets of one size form one
// orbit, whose lowest indices are 0, 1 and 10, so the snapshots land at 1, 2
// and 11, and the span past the last representative ends at the extent.
func TestCheckScanProgress(t *testing.T) {
	g := mustComplete(t, 9)
	total := NumFaultSets(9, 2) // 1 + 9 + 36
	want := []int64{1, 2, 11, total}
	var got []int64
	res, err := CheckScan(context.Background(), g, 2, SyncThreshold(2), ScanOptions{Workers: 1, OnProgress: func(p Progress) {
		if p.FaultSetsTotal != total {
			t.Fatalf("progress %+v: total %d, want %d", p, p.FaultSetsTotal, total)
		}
		got = append(got, p.FaultSetsDone)
	}})
	if err != nil || !res.Satisfied {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("progress snapshots %v, want %v", got, want)
	}
}

// TestMaxFScanCallbacks drives the full coordinator: per-check completions
// arrive in ascending f, and cancellation surfaces partial stats.
func TestMaxFScanCallbacks(t *testing.T) {
	g := mustComplete(t, 10)
	var checked []int
	best, stats, err := MaxFScan(context.Background(), g, MaxFOptions{
		Workers: 2,
		OnCheck: func(f int, res Result) {
			checked = append(checked, f)
			if !res.Satisfied && f <= 3 {
				t.Errorf("K10 must satisfy f=%d", f)
			}
		},
	})
	if err != nil || best != 3 {
		t.Fatalf("best=%d err=%v, want 3", best, err)
	}
	// OnCheck fires for every completed check, including the failing f that
	// ends the scan.
	if len(checked) != stats.ChecksRun {
		t.Fatalf("OnCheck calls = %d, ChecksRun = %d", len(checked), stats.ChecksRun)
	}
	for i, f := range checked {
		if f != i {
			t.Fatalf("OnCheck order = %v", checked)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	best, stats, err = MaxFScan(ctx, g, MaxFOptions{})
	if !errors.Is(err, context.Canceled) || best != -1 {
		t.Fatalf("canceled scan: best=%d err=%v", best, err)
	}
	if stats.ChecksRun == 0 {
		t.Error("canceled scan should still report the interrupted check in stats")
	}
}

func TestCheckParallelInfeasibleSize(t *testing.T) {
	big, err := topology.DirectedCycle(70)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckScan(context.Background(), big, 0, SyncThreshold(0), ScanOptions{Workers: 4}); err == nil {
		t.Error("n-f > 62 should be rejected")
	}
}
