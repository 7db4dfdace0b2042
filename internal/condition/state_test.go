package condition

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"iabc/internal/nodeset"
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

// TestCheckScanIgnoresCorruptState: whatever sits at the checkpoint and
// verdict keys without being this scan's record — garbage, another schema
// version, or a well-formed record of a foreign identity (a hash collision,
// a copied file) claiming a violated verdict and a resumed prefix — must
// degrade to a fresh scan, never a wrong verdict. The envelope's own table
// test is statestore's TestRecordLoad; this pins that the checker goes
// through it.
func TestCheckScanIgnoresCorruptState(t *testing.T) {
	g, err := topology.CoreNetwork(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	store := statestore.NewMem()
	cp, verdict := scanRecords(store, g.Encode(), 3, SyncThreshold(3))
	raw := func(garbage string) func() error {
		return func() error {
			if err := store.Write(ctx, cp.Key, []byte(garbage)); err != nil {
				return err
			}
			return store.Write(ctx, verdict.Key, []byte(garbage))
		}
	}
	foreign := func() error {
		fcp, fv := cp, verdict
		fcp.Ident, fv.Ident = "g1:3 f=3 threshold=7", "g1:3 f=3 threshold=7"
		if err := fcp.Save(ctx, checkpointBody{Done: 7, WorkCounters: WorkCounters{Candidates: 1 << 40}}); err != nil {
			return err
		}
		return fv.Save(ctx, verdictBody{Satisfied: false, FaultSets: 1})
	}
	for name, plant := range map[string]func() error{
		"not json":         raw("not json"),
		"other version":    raw(`{"version":1,"graph":"g1:3","done":7}`),
		"foreign identity": foreign,
	} {
		if err := plant(); err != nil {
			t.Fatal(err)
		}
		res, err := CheckScan(ctx, g, 3, SyncThreshold(3), ScanOptions{Workers: 1, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || !res.Satisfied || res.FaultSetsResumed != 0 {
			t.Fatalf("%s: corrupt state leaked into result: %+v", name, res)
		}
		if err := store.Delete(ctx, verdict.Key); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckScanIgnoresCheckpointPastExtent: a checkpoint whose prefix runs
// past the extent is corrupt at every n, n > 62 included. A 63-cycle at
// f = 1 has 64 fault sets and violates at F = ∅; with Done = 1000 planted,
// the scan must start fresh, stop at the first fault set, and cache the
// violated verdict, never a satisfied one.
func TestCheckScanIgnoresCheckpointPastExtent(t *testing.T) {
	g, err := topology.Circulant(63, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	store := statestore.NewMem()
	threshold := SyncThreshold(1)
	cp, verdict := scanRecords(store, g.Encode(), 1, threshold)
	if err := cp.Save(ctx, checkpointBody{Done: 1000}); err != nil {
		t.Fatal(err)
	}
	res, err := CheckScan(ctx, g, 1, threshold, ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied || res.FaultSetsExamined != 1 || res.FaultSetsResumed != 0 {
		t.Fatalf("corrupt checkpoint leaked into result: %+v", res)
	}
	var v verdictBody
	if ok, err := verdict.Load(ctx, &v); err != nil || !ok || v.Satisfied || v.FaultSets != 1 {
		t.Fatalf("cached verdict %+v (found %v, err %v), want violated after 1 fault set", v, ok, err)
	}
}

// TestWitnessMembersOutOfRange: a witness naming a node outside [0, n) —
// in a worker's violation report or in this scan's own verdict record — is
// an error on the wire and a miss in the store, never a panic.
func TestWitnessMembersOutOfRange(t *testing.T) {
	if _, err := DecodeWitness([]byte(`{"n":3,"f":[7],"l":[],"c":[],"r":[]}`)); err == nil {
		t.Fatal("DecodeWitness accepted member 7 of n = 3")
	}
	if _, err := DecodeWitness([]byte(`{"n":-1}`)); err == nil {
		t.Fatal("DecodeWitness accepted n = -1")
	}

	g, err := topology.CoreNetwork(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	store := statestore.NewMem()
	_, verdict := scanRecords(store, g.Encode(), 3, SyncThreshold(3))
	bad := &witnessRecord{N: 10, F: []int{0}, L: []int{1}, R: []int{99}}
	if err := verdict.Save(ctx, verdictBody{Satisfied: false, Witness: bad, FaultSets: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := CheckScan(ctx, g, 3, SyncThreshold(3), ScanOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || !res.Satisfied {
		t.Fatalf("verdict with an out-of-range witness was trusted: %+v", res)
	}
}

// TestMaxFScanResumeEquivalence interrupts a MaxF sweep mid-check, resumes it
// over the same store, and requires best-f and every stats total to match an
// uninterrupted sweep, with the checks settled before the interruption served
// by the verdict cache; a subsequent fresh sweep of the settled graph must be
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
	if stats.CacheHits == 0 {
		t.Error("resumed sweep took no settled check from the verdict cache")
	}
	got := stats
	got.CacheHits, got.FaultSetsResumed = 0, 0
	if got != statsBase {
		t.Fatalf("resumed stats differ:\nbase    %+v\nresumed %+v", statsBase, got)
	}

	// The sweep settled, so a fresh sweep is answered check-by-check from
	// the verdict cache.
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
	if stats2.FaultSetsResumed != 0 {
		t.Fatalf("cached sweep is not a resume: %+v", stats2)
	}
	got2 := stats2
	got2.CacheHits, got2.FaultSetsResumed = 0, 0
	if got2 != statsBase {
		t.Fatalf("cached sweep stats differ:\nbase   %+v\ncached %+v", statsBase, got2)
	}
}

// TestStateRecordsGolden pins the stored bytes — key, envelope and body — of
// the checker's two record kinds at stateVersion. A schema change shows up
// here; it must come with a stateVersion bump (which changes these bytes
// too), so that records written before it miss instead of misparsing.
func TestStateRecordsGolden(t *testing.T) {
	ctx := context.Background()
	store := statestore.NewMem()
	const enc = "g1:4;0>1;1>0"
	cp, verdict := scanRecords(store, enc, 1, 3)
	work := WorkCounters{Candidates: 9, Pruned: 4, MemoHits: 1}
	w := &Witness{
		F: nodeset.FromMembers(4, 3), L: nodeset.FromMembers(4, 0),
		C: nodeset.New(4), R: nodeset.FromMembers(4, 1, 2),
	}
	for _, err := range []error{
		cp.Save(ctx, checkpointBody{Done: 5, WorkCounters: work}),
		verdict.Save(ctx, verdictBody{Satisfied: false, Witness: toWitnessRecord(w), FaultSets: 2, WorkCounters: work}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	golden := map[string]string{
		"checkpoint/0da8584fe5ab7e9e-f1-t3": `{"version":2,"ident":"g1:4;0\u003e1;1\u003e0 f=1 threshold=3","body":{"done":5,"candidates":9,"pruned":4,"memo_hits":1}}`,
		"verdict/0da8584fe5ab7e9e-f1-t3":    `{"version":2,"ident":"g1:4;0\u003e1;1\u003e0 f=1 threshold=3","body":{"satisfied":false,"witness":{"n":4,"f":[3],"l":[0],"c":[],"r":[1,2]},"fault_sets":2,"candidates":9,"pruned":4,"memo_hits":1}}`,
	}
	keys, err := store.List(ctx, "")
	if err != nil || len(keys) != len(golden) {
		t.Errorf("store holds %v (err %v), want %d records", keys, err, len(golden))
	}
	for _, key := range keys {
		got, _ := store.Read(ctx, key)
		if string(got) != golden[key] {
			t.Errorf("%s (stateVersion %d):\n got %s\nwant %s", key, stateVersion, got, golden[key])
		}
	}
}
