package async

import (
	"context"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// allocsConfig is the fixture for the allocation gates: a K7 run with one
// EdgeWriter adversary and no Epsilon stop (it always runs to MaxRounds).
func allocsConfig(t *testing.T, rounds int) Config {
	t.Helper()
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		G: g, F: 1, Faulty: nodeset.FromMembers(7, 6),
		Initial: initialRamp(7), Rule: core.TrimmedMean{},
		Adversary: adversary.Fixed{Value: 1e4},
		Delays:    Fixed{D: 1},
		MaxRounds: rounds,
	}
}

// TestAsyncEventLoopZeroSteadyStateAllocs is the calendar-queue counterpart
// of the engines' differential allocs gate: a run with 4× the rounds must
// allocate exactly as much as the short run (setup only). The
// container/heap reference cannot pass this — heap.Push boxes every event
// into an interface value, one allocation per scheduled message — which the
// second half of the test demonstrates to keep the gate honest.
func TestAsyncEventLoopZeroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates nondeterministically")
	}
	measure := func(rounds int, mk func() eventPQ) float64 {
		return testing.AllocsPerRun(5, func() {
			tr, err := runOnQueue(context.Background(), allocsConfig(t, rounds), mk())
			if err != nil {
				t.Fatal(err)
			}
			if tr.Converged {
				t.Fatal("allocs fixture unexpectedly converged")
			}
		})
	}

	calShort := measure(100, func() eventPQ { return newCalendarQueue() })
	calLong := measure(400, func() eventPQ { return newCalendarQueue() })
	if calLong > calShort {
		t.Errorf("calendar-queue event loop allocates in steady state: %.1f allocs at 100 rounds vs %.1f at 400 (≈%.3f/round)",
			calShort, calLong, (calLong-calShort)/300)
	}

	heapShort := measure(100, func() eventPQ { return newHeapQueue() })
	heapLong := measure(400, func() eventPQ { return newHeapQueue() })
	if heapLong <= heapShort {
		t.Errorf("heap reference no longer allocates per event (%.1f at 100 rounds vs %.1f at 400); the differential gate has lost its discriminating power",
			heapShort, heapLong)
	}
}

// TestCalendarQueueWarmOpsAllocFree pins the queue-level half of the
// contract directly: once bucket capacities are warm, push and pop allocate
// nothing.
func TestCalendarQueueWarmOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates nondeterministically")
	}
	q := newCalendarQueue()
	// Warm: drive occupancy past the final steady-state level, then drain
	// back so the measured window reuses existing bucket capacity.
	var seq int64
	for i := 0; i < 256; i++ {
		q.push(event{at: float64(i % 17), seq: seq})
		seq++
	}
	for i := 0; i < 192; i++ {
		q.pop()
	}
	at := 17.0
	allocs := testing.AllocsPerRun(100, func() {
		q.push(event{at: at, seq: seq})
		seq++
		at += 0.25
		if _, ok := q.pop(); !ok {
			t.Fatal("warm queue empty")
		}
	})
	if allocs != 0 {
		t.Errorf("warm push/pop cycle allocates %.1f per op, want 0", allocs)
	}
}
