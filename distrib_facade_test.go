package iabc_test

// Distributed-facade equivalence: WithWorkerPool must be invisible in the
// results — Check, MaxF, and Sweep return exactly what the single-process
// call returns, with the work flowing through the coordinator–worker job
// protocol instead. Also pins the sweep's durable checkpointing surface
// (WithBackend) on both the local and distributed paths.

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"iabc"
)

func distribScenarios() []iabc.Scenario {
	return []iabc.Scenario{
		{Name: "hug-low", Adversary: iabc.Hug{}},
		{Name: "silent", Adversary: iabc.Silent{}},
		{Name: "insider", Adversary: &iabc.Insider{High: true}},
	}
}

func distribSweepOpts(initial []float64, extra ...iabc.Option) []iabc.Option {
	return append([]iabc.Option{
		iabc.WithF(2),
		iabc.WithFaulty(0, 1),
		iabc.WithInitial(initial),
		iabc.WithAdversary(iabc.Hug{High: true}),
		iabc.WithMaxRounds(60),
		iabc.WithRecordStates(),
	}, extra...)
}

// TestWorkerPoolCheckMatchesLocal runs Check through a two-worker pool and
// requires the full CheckResult — witness and counters included — to
// deep-equal the local scan, with the coordinator summary observed.
func TestWorkerPoolCheckMatchesLocal(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*iabc.Graph, error)
		f    int
	}{
		{"core-satisfied", func() (*iabc.Graph, error) { return iabc.CoreNetwork(10, 2) }, 2},
		{"chord-violated", func() (*iabc.Graph, error) { return iabc.Chord(7, 2) }, 2},
	} {
		g, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		want, err := iabc.Check(context.Background(), g, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		var summary iabc.Event
		got, err := iabc.Check(context.Background(), g, tc.f,
			iabc.WithWorkerPool(2),
			iabc.WithObserver(func(e iabc.Event) {
				if e.Kind == iabc.EventCoordinator {
					summary = e
				}
			}),
		)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled check %+v, local %+v", tc.name, got, want)
		}
		if summary.Kind != iabc.EventCoordinator || summary.Name == "" || summary.Done == 0 {
			t.Fatalf("%s: coordinator summary event = %+v", tc.name, summary)
		}
	}
}

// TestWorkerPoolBindsNoPort: a pool without WithCoordinator joins its
// coordinator over in-memory connections, so the call listens nowhere and
// the coordinator summary names it "in-process"; with WithCoordinator the
// summary names the bound address.
func TestWorkerPoolBindsNoPort(t *testing.T) {
	g, err := iabc.CoreNetwork(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts []iabc.Option
		name func(string) bool
	}{
		{nil, func(name string) bool { return name == "in-process" }},
		{[]iabc.Option{iabc.WithCoordinator("127.0.0.1:0")}, func(name string) bool { return strings.HasPrefix(name, "127.0.0.1:") }},
	} {
		var summary iabc.Event
		opts := append(tc.opts, iabc.WithWorkerPool(2), iabc.WithObserver(func(e iabc.Event) {
			if e.Kind == iabc.EventCoordinator {
				summary = e
			}
		}))
		if _, err := iabc.Check(context.Background(), g, 2, opts...); err != nil {
			t.Fatal(err)
		}
		if !tc.name(summary.Name) || summary.Done == 0 {
			t.Fatalf("coordinator summary %+v with %d options", summary, len(tc.opts))
		}
	}
}

// TestWorkerPoolMaxFMatchesLocal distributes the whole f-sweep and compares
// best f plus every aggregated stat against the local scan.
func TestWorkerPoolMaxFMatchesLocal(t *testing.T) {
	g, err := iabc.Chord(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, wantStats, err := iabc.MaxFWithStats(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	gotBest, gotStats, err := iabc.MaxFWithStats(context.Background(), g, iabc.WithWorkerPool(2))
	if err != nil {
		t.Fatal(err)
	}
	if gotBest != wantBest || !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("pooled maxf = %d %+v, local %d %+v", gotBest, gotStats, wantBest, wantStats)
	}
}

// TestWorkerPoolSweepMatchesLocal runs a sweep through the pool — composed
// with WithCoordinator on an ephemeral port — and compares every trace
// bit-for-bit.
func TestWorkerPoolSweepMatchesLocal(t *testing.T) {
	g := facadeGraph(t)
	initial := facadeInitial(g.N())
	scens := distribScenarios()

	want, err := iabc.Sweep(context.Background(), g, scens, distribSweepOpts(initial)...)
	if err != nil {
		t.Fatal(err)
	}
	var summary iabc.Event
	got, err := iabc.Sweep(context.Background(), g, scens, distribSweepOpts(initial,
		iabc.WithCoordinator("127.0.0.1:0"),
		iabc.WithWorkerPool(2),
		iabc.WithObserver(func(e iabc.Event) {
			if e.Kind == iabc.EventCoordinator {
				summary = e
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		tracesEqual(t, scens[i].Name, want.Traces[i], got.Traces[i])
		for r := range want.Traces[i].States {
			for j := range want.Traces[i].States[r] {
				if math.Float64bits(want.Traces[i].States[r][j]) != math.Float64bits(got.Traces[i].States[r][j]) {
					t.Fatalf("%s: states[%d][%d] differ", scens[i].Name, r, j)
				}
			}
		}
	}
	if summary.Kind != iabc.EventCoordinator || summary.Total == 0 {
		t.Fatalf("coordinator summary event = %+v", summary)
	}
}

// TestSweepResumeThroughFacade pins the sweep checkpointing surface: a
// sweep over WithBackend persists per-scenario results, and re-running it —
// locally or through a worker pool — resumes them bit-identically.
func TestSweepResumeThroughFacade(t *testing.T) {
	g := facadeGraph(t)
	initial := facadeInitial(g.N())
	scens := distribScenarios()
	store := iabc.NewMemBackend()

	want, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store))...)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store))...)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ScenariosResumed != len(scens) {
		t.Fatalf("local resume: ScenariosResumed = %d, want %d", resumed.ScenariosResumed, len(scens))
	}
	pooled, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store), iabc.WithWorkerPool(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.ScenariosResumed != len(scens) {
		t.Fatalf("pooled resume: ScenariosResumed = %d, want %d", pooled.ScenariosResumed, len(scens))
	}
	for i := range scens {
		tracesEqual(t, scens[i].Name+"/local", want.Traces[i], resumed.Traces[i])
		tracesEqual(t, scens[i].Name+"/pooled", want.Traces[i], pooled.Traces[i])
	}

	// A different seed salts the identity: nothing resumes.
	fresh, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store), iabc.WithSeed(7))...)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ScenariosResumed != 0 {
		t.Fatalf("different seed resumed %d scenarios", fresh.ScenariosResumed)
	}
}
