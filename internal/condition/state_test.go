package condition

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"iabc/internal/statestore"
	"iabc/internal/topology"
)

// stripResumeMarkers zeroes the fields that only report how a Result was
// obtained, so resumed and uninterrupted runs can be compared field-by-field.
func stripResumeMarkers(r Result) Result {
	r.FaultSetsResumed = 0
	r.CacheHit = false
	return r
}

// TestCheckScanVerdictCache pins the memoization contract: the second scan of
// the same (graph, f, threshold) is served whole from the verdict cache —
// identical verdict, witness, and counters, with CacheHit set — and a
// different threshold misses.
func TestCheckScanVerdictCache(t *testing.T) {
	g, err := topology.CoreNetwork(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	store := statestore.NewMem()
	first, err := CheckScan(context.Background(), g, 3, SyncThreshold(3), ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first scan must not report CacheHit")
	}
	second, err := CheckScan(context.Background(), g, 3, SyncThreshold(3), ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second scan should be a cache hit")
	}
	if stripResumeMarkers(second) != stripResumeMarkers(first) {
		t.Fatalf("cached result differs:\nfirst  %+v\nsecond %+v", first, second)
	}
	// A different threshold is a different scan identity.
	miss, err := CheckScan(context.Background(), g, 3, AsyncThreshold(3), ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit {
		t.Fatal("different threshold must not hit the cache")
	}
}

// TestCheckScanVerdictCacheUnsatisfied covers the negative-verdict side: the
// cached witness round-trips and still verifies.
func TestCheckScanVerdictCacheUnsatisfied(t *testing.T) {
	g, err := topology.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := statestore.NewMem()
	first, err := CheckScan(context.Background(), g, 2, SyncThreshold(2), ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if first.Satisfied {
		t.Fatal("chord(7,2) should be violated")
	}
	second, err := CheckScan(context.Background(), g, 2, SyncThreshold(2), ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Satisfied {
		t.Fatalf("cached verdict wrong: %+v", second)
	}
	if !second.Witness.F.Equal(first.Witness.F) ||
		!second.Witness.L.Equal(first.Witness.L) ||
		!second.Witness.C.Equal(first.Witness.C) ||
		!second.Witness.R.Equal(first.Witness.R) {
		t.Fatalf("cached witness differs:\nfirst  %v\nsecond %v", first.Witness, second.Witness)
	}
	if err := second.Witness.Verify(g, 2, SyncThreshold(2)); err != nil {
		t.Fatalf("cached witness does not verify: %v", err)
	}
}

// cancelOnWrite cancels the scan's context from inside its first Write and
// then forwards the call, so that write fails with the context's own error —
// a cancellation landing mid-checkpoint, made deterministic.
type cancelOnWrite struct {
	statestore.Backend
	cancel context.CancelFunc
}

func (b cancelOnWrite) Write(ctx context.Context, key string, data []byte) error {
	b.cancel()
	return b.Backend.Write(ctx, key, data)
}

// TestCheckScanResumeEquivalence is the tentpole invariant: a scan killed
// mid-flight and restarted over the same store finishes with a Result
// identical (verdict, witness, every counter) to an uninterrupted run — at
// both worker counts, whether the cancellation arrives between fault sets
// (from a progress callback) or inside the first checkpoint write.
func TestCheckScanResumeEquivalence(t *testing.T) {
	g, err := topology.CoreNetwork(14, 2)
	if err != nil {
		t.Fatal(err)
	}
	const f = 2
	baseline, err := CheckScan(context.Background(), g, f, SyncThreshold(f), ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Satisfied {
		t.Fatal("core(14,2) should satisfy")
	}
	for _, tc := range []struct {
		workers       int
		cancelInWrite bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		label := fmt.Sprintf("workers=%d cancelInWrite=%v", tc.workers, tc.cancelInWrite)
		store := statestore.NewMem()
		ctx, cancel := context.WithCancel(context.Background())
		opts := ScanOptions{Workers: tc.workers, CheckpointEvery: 4, Store: store}
		if tc.cancelInWrite {
			opts.Store = cancelOnWrite{store, cancel}
		} else {
			var fired atomic.Int64
			opts.OnProgress = func(p Progress) {
				if fired.Add(1) == 40 {
					cancel()
				}
			}
		}
		_, err := CheckScan(ctx, g, f, SyncThreshold(f), opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted scan err=%v, want context.Canceled", label, err)
		}
		resumed, err := CheckScan(context.Background(), g, f, SyncThreshold(f), ScanOptions{
			Workers:         tc.workers,
			CheckpointEvery: 4,
			Store:           store,
		})
		if err != nil {
			t.Fatalf("%s: resume failed: %v", label, err)
		}
		if resumed.FaultSetsResumed == 0 {
			t.Errorf("%s: resume skipped nothing — checkpoint was not honored", label)
		}
		if resumed.CacheHit {
			t.Errorf("%s: resume must re-run, not cache-hit", label)
		}
		if stripResumeMarkers(resumed) != baseline {
			t.Errorf("%s: resumed result differs from uninterrupted:\nbase    %+v\nresumed %+v",
				label, baseline, resumed)
		}
	}
}

// TestCheckScanResumeUnsatisfied interrupts a scan over a violated graph and
// checks the resumed run reports the canonical witness — the same one the
// uninterrupted sequential scan finds.
func TestCheckScanResumeUnsatisfied(t *testing.T) {
	g, err := topology.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := CheckScan(context.Background(), g, 2, SyncThreshold(2), ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := statestore.NewMem()
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Int64
	_, err = CheckScan(ctx, g, 2, SyncThreshold(2), ScanOptions{
		Workers:         1,
		CheckpointEvery: 2,
		Store:           store,
		OnProgress: func(p Progress) {
			if fired.Add(1) == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted scan err=%v, want context.Canceled", err)
	}
	resumed, err := CheckScan(context.Background(), g, 2, SyncThreshold(2), ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Satisfied {
		t.Fatal("resumed scan lost the violation")
	}
	if !resumed.Witness.F.Equal(baseline.Witness.F) ||
		!resumed.Witness.L.Equal(baseline.Witness.L) ||
		!resumed.Witness.R.Equal(baseline.Witness.R) {
		t.Fatalf("resumed witness differs:\nbase    %v\nresumed %v", baseline.Witness, resumed.Witness)
	}
	// Counter totals must match too; the witness pointers are distinct
	// allocations, so compare with them normalized out.
	br, rr := baseline, stripResumeMarkers(resumed)
	br.Witness, rr.Witness = nil, nil
	if br != rr {
		t.Fatalf("resumed counters differ:\nbase    %+v\nresumed %+v", br, rr)
	}
}

// TestCheckScanIgnoresCorruptState: garbage at the checkpoint and verdict
// keys must degrade to a fresh scan, never a wrong verdict.
func TestCheckScanIgnoresCorruptState(t *testing.T) {
	g, err := topology.CoreNetwork(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	store := statestore.NewMem()
	cpKey, vKey := scanKeys(g.Encode(), 3, SyncThreshold(3))
	for _, garbage := range [][]byte{[]byte("not json"), []byte(`{"version":99}`), []byte(`{"version":1,"graph":"g1:3","done":7}`)} {
		if err := store.Write(context.Background(), cpKey, garbage); err != nil {
			t.Fatal(err)
		}
		if err := store.Write(context.Background(), vKey, garbage); err != nil {
			t.Fatal(err)
		}
		res, err := CheckScan(context.Background(), g, 3, SyncThreshold(3), ScanOptions{Workers: 1, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || !res.Satisfied || res.FaultSetsResumed != 0 {
			t.Fatalf("corrupt state leaked into result: %+v", res)
		}
		if err := store.Delete(context.Background(), vKey); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaxFScanResumeEquivalence interrupts a MaxF sweep mid-check, resumes it
// over the same store, and requires best-f and every stats total to match an
// uninterrupted sweep; a subsequent fresh sweep of the settled graph must be
// served entirely from the verdict cache.
func TestMaxFScanResumeEquivalence(t *testing.T) {
	g, err := topology.CoreNetwork(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	bestBase, statsBase, err := MaxFScan(context.Background(), g, MaxFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := statestore.NewMem()
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Int64
	_, _, err = MaxFScan(ctx, g, MaxFOptions{
		Store:           store,
		CheckpointEvery: 4,
		OnProgress: func(f int, p Progress) {
			// Let a few checks settle, then kill mid-check at a larger f.
			if f >= 2 && fired.Add(1) == 10 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err=%v, want context.Canceled", err)
	}
	best, stats, err := MaxFScan(context.Background(), g, MaxFOptions{Store: store, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if best != bestBase {
		t.Fatalf("resumed best=%d, uninterrupted best=%d", best, bestBase)
	}
	if stats.ChecksResumed == 0 {
		t.Error("resumed sweep replayed no settled checks")
	}
	got := stats
	got.ChecksResumed, got.CacheHits, got.FaultSetsResumed = 0, 0, 0
	if got != statsBase {
		t.Fatalf("resumed stats differ:\nbase    %+v\nresumed %+v", statsBase, got)
	}

	// The sweep settled: the in-flight record is gone, so a fresh sweep is
	// answered check-by-check from the verdict cache.
	best2, stats2, err := MaxFScan(context.Background(), g, MaxFOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if best2 != bestBase {
		t.Fatalf("cached sweep best=%d, want %d", best2, bestBase)
	}
	if stats2.CacheHits != stats2.ChecksRun || stats2.CacheHits == 0 {
		t.Fatalf("cached sweep should hit on every check: %+v", stats2)
	}
	if stats2.ChecksResumed != 0 {
		t.Fatalf("cached sweep is not a resume: %+v", stats2)
	}
	got2 := stats2
	got2.ChecksResumed, got2.CacheHits, got2.FaultSetsResumed = 0, 0, 0
	if got2 != statsBase {
		t.Fatalf("cached sweep stats differ:\nbase   %+v\ncached %+v", statsBase, got2)
	}
}

// TestMaxFScanResumeAfterNegativeCheck simulates a crash after a failing
// check settled (its record saved) but before the in-flight record cleanup:
// the resumed sweep must finish immediately from the record — replaying the
// negative verdict without re-running anything — and clean the record up.
// Chord(7,2) ends its sweep with a genuine failing check at f=2 (§6.3).
func TestMaxFScanResumeAfterNegativeCheck(t *testing.T) {
	g, err := topology.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	bestBase, statsBase, err := MaxFScan(context.Background(), g, MaxFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bestBase != 1 {
		t.Fatalf("chord(7,2) maxf = %d, want 1 (f=2 fails)", bestBase)
	}
	// Run a full sweep to populate the verdict cache, then capture the
	// per-check results and fabricate the in-flight record a crash-before-
	// cleanup would have left behind (the settled sweep deletes it).
	store := statestore.NewMem()
	if _, _, err := MaxFScan(context.Background(), g, MaxFOptions{Store: store}); err != nil {
		t.Fatal(err)
	}
	rec, err := loadMaxFRecord(context.Background(), store, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checks) != 0 {
		t.Fatal("settled sweep should have deleted its record")
	}
	full := maxfRecord{Version: stateVersion, Graph: g.Encode()}
	if _, _, err := MaxFScan(context.Background(), g, MaxFOptions{
		Store: store,
		OnCheck: func(f int, res Result) {
			full.Checks = append(full.Checks, maxfCheck{
				F: f, Satisfied: res.Satisfied,
				FaultSets:  res.FaultSetsExamined,
				Candidates: res.CandidatesExamined,
				Pruned:     res.CandidatesPruned,
				MemoHits:   res.MemoHits,
			})
		},
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(full.Checks); n != 3 || full.Checks[2].Satisfied {
		t.Fatalf("expected checks f=0,1,2 ending unsatisfied, got %+v", full.Checks)
	}
	if err := full.save(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	best, stats, err := MaxFScan(context.Background(), g, MaxFOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if best != bestBase {
		t.Fatalf("best=%d, want %d", best, bestBase)
	}
	if stats.ChecksResumed != len(full.Checks) || stats.ChecksRun != len(full.Checks) {
		t.Fatalf("sweep should settle wholly from the record: %+v (want %d replayed)", stats, len(full.Checks))
	}
	got := stats
	got.ChecksResumed, got.CacheHits, got.FaultSetsResumed = 0, 0, 0
	if got != statsBase {
		t.Fatalf("replayed stats differ:\nbase     %+v\nreplayed %+v", statsBase, got)
	}
	rec2, err := loadMaxFRecord(context.Background(), store, g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Checks) != 0 {
		t.Fatal("negative replay should delete the in-flight record")
	}
}
