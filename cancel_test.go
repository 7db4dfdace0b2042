package iabc_test

// Cancellation contract of the public facade: a mid-scan context.Canceled
// from Check, MaxF, or Sweep returns promptly (bounded by one scenario or
// fault set), reports partial progress in the wrapped error, and leaks no
// worker goroutines; a canceled Cluster additionally tears down every
// actor and chaos delay goroutine while a partition keeps refusing sends. These tests run under -race in CI.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iabc"
)

// waitNoLeakedGoroutines fails the test if the goroutine count does not
// return to (near) base within a grace period — workers must exit once
// cancellation is observed, not linger.
func waitNoLeakedGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		// A small slack absorbs runtime housekeeping goroutines that come
		// and go independently of this test.
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cancelSweepInputs(t *testing.T) (*iabc.Graph, []iabc.Scenario, []iabc.Option) {
	t.Helper()
	g, err := iabc.CoreNetwork(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, g.N())
	for i := range initial {
		initial[i] = float64(i)
	}
	var scens []iabc.Scenario
	for i := 0; i < 24; i++ {
		scens = append(scens, iabc.Scenario{Adversary: iabc.Hug{High: i%2 == 0}})
	}
	opts := []iabc.Option{
		iabc.WithF(2), iabc.WithFaulty(0, 1), iabc.WithInitial(initial),
		iabc.WithMaxRounds(400),
	}
	return g, scens, opts
}

func TestSweepCancellationFacade(t *testing.T) {
	g, scens, opts := cancelSweepInputs(t)
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		all := append(opts,
			iabc.WithWorkers(workers),
			iabc.WithObserver(func(e iabc.Event) {
				if e.Kind == iabc.EventScenarioDone && seen.Add(1) == 2 {
					cancel()
				}
			}))
		res, err := iabc.Sweep(ctx, g, scens, all...)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: res=%v err=%v, want nil + context.Canceled", workers, res, err)
		}
		if !strings.Contains(err.Error(), "canceled after") {
			t.Errorf("workers=%d: error does not report partial progress: %v", workers, err)
		}
		if n := seen.Load(); n >= int64(len(scens)) {
			t.Errorf("workers=%d: all %d scenarios ran despite cancellation", workers, n)
		}
		waitNoLeakedGoroutines(t, base)
		cancel()
	}
}

func TestCheckCancellationFacade(t *testing.T) {
	g, err := iabc.CoreNetwork(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		res, err := iabc.Check(ctx, g, 2,
			iabc.WithWorkers(workers),
			iabc.WithObserver(func(e iabc.Event) {
				if e.Kind == iabc.EventCheckProgress && seen.Add(1) == 3 {
					cancel()
				}
			}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if !strings.Contains(err.Error(), "canceled after") {
			t.Errorf("workers=%d: error does not report partial progress: %v", workers, err)
		}
		if res.Satisfied {
			t.Errorf("workers=%d: interrupted check must not report a verdict", workers)
		}
		if res.FaultSetsExamined == 0 {
			t.Errorf("workers=%d: partial work counters missing", workers)
		}
		waitNoLeakedGoroutines(t, base)
		cancel()
	}
}

// TestClusterCancellationFacade cancels a cluster mid-chaos, during an
// unhealed partition that refuses every cross-cut send and keeps the stall
// resends backing off, and requires a prompt context.Canceled return with
// zero leaked goroutines — actors, the crash supervisor, and the chaos
// layer's delayed-delivery goroutines must all unwind.
func TestClusterCancellationFacade(t *testing.T) {
	g, err := iabc.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := iabc.Cluster(ctx, g,
		iabc.WithInitial(initial),
		iabc.WithMaxRounds(1_000_000), // unreachable: the partition stalls progress
		iabc.WithResendEvery(time.Millisecond),
		iabc.WithChaos(iabc.ChaosConfig{
			Seed: 5, Drop: 0.1, MaxDelay: 2 * time.Millisecond,
			Partitions: []iabc.LinkPartition{{
				A: iabc.SetOf(n, 0), B: iabc.SetOf(n, 0).Complement(), From: 0, // never heals
			}},
		}))
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want nil + context.Canceled", res, err)
	}
	if !strings.Contains(err.Error(), "canceled after") {
		t.Errorf("error does not report partial progress: %v", err)
	}
	waitNoLeakedGoroutines(t, base)
	cancel()
}

func TestMaxFCancellationFacade(t *testing.T) {
	g, err := iabc.CoreNetwork(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var checks atomic.Int64
	best, stats, err := iabc.MaxFWithStats(ctx, g,
		iabc.WithWorkers(4),
		iabc.WithObserver(func(e iabc.Event) {
			if e.Kind == iabc.EventCheckDone && checks.Add(1) == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// Two checks (f=0, f=1) completed before the cancel, so the scan had
	// decided at least f=1 and accumulated their stats.
	if best < 1 {
		t.Errorf("best=%d: completed checks must be reported on cancellation", best)
	}
	if stats.ChecksRun < 2 || stats.FaultSetsExamined == 0 {
		t.Errorf("partial stats missing: %+v", stats)
	}
	waitNoLeakedGoroutines(t, base)
	cancel()
}
