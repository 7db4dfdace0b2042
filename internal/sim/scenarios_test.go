package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// runScenarios is the single-worker sequential sweep the scenario tests
// compare against direct runs; the traces are nil on error.
func runScenarios(base Config, scens []Scenario) ([]*Trace, error) {
	res, err := Sweep(context.Background(), base, scens, SweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res.Traces, nil
}

// scenarioBase builds the shared base config for scenario-sweep tests.
func scenarioBase(t *testing.T) Config {
	t.Helper()
	g, err := topology.CoreNetwork(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, 10)
	for i := range initial {
		initial[i] = float64(i) * 1.25
	}
	return Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(10, 0, 1), Initial: initial,
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Hug{High: true},
		MaxRounds: 80, Epsilon: 1e-9, RecordStates: true,
	}
}

// TestScenarioOverrideSemantics pins the Scenario.apply override rules: the
// Cap() sentinel for sized sets, the HasFaulty escape hatch for zero-value
// sets, and nil-ness for Initial. Regression for the ambiguity where "keep
// base" and "override to fault-free" were indistinguishable depending on how
// the empty set was constructed.
func TestScenarioOverrideSemantics(t *testing.T) {
	base := scenarioBase(t)
	n := base.G.N()

	// Reference traces for the two behaviors a fault-set override can mean.
	withFaults, err := Sequential{}.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faultFreeCfg := base
	faultFreeCfg.Faulty = nodeset.New(n)
	noFaults, err := Sequential{}.Run(faultFreeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(withFaults.U[1]) == math.Float64bits(noFaults.U[1]) {
		t.Fatal("test is vacuous: faulty and fault-free runs coincide")
	}

	cases := []struct {
		name string
		s    Scenario
		want *Trace
	}{
		{"zero-value set keeps base", Scenario{Name: "keep"}, withFaults},
		{"sized empty set overrides to fault-free", Scenario{Name: "sized", Faulty: nodeset.New(n)}, noFaults},
		{"HasFaulty with zero-value set overrides to fault-free", Scenario{Name: "flagged", HasFaulty: true}, noFaults},
		{"non-empty set overrides", Scenario{Name: "moved", Faulty: nodeset.FromMembers(n, 3, 4)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traces, err := runScenarios(base, []Scenario{tc.s})
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != nil {
				assertTracesEqual(t, tc.name, tc.want, traces[0])
				return
			}
			// The moved fault set must match a direct run of the derived
			// config.
			cfg := base
			cfg.Faulty = tc.s.Faulty
			want, err := Sequential{}.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertTracesEqual(t, tc.name, want, traces[0])
		})
	}

	// Initial: nil keeps base, non-nil overrides.
	override := make([]float64, n)
	for i := range override {
		override[i] = 100 - float64(i)
	}
	traces, err := runScenarios(base, []Scenario{{Name: "init"}, {Name: "init2", Initial: override}})
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, "nil initial keeps base", withFaults, traces[0])
	cfg := base
	cfg.Initial = override
	want, err := Sequential{}.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, "initial override", want, traces[1])
}

// failAboveRule is a rule that passes static validation but errors at run
// time once a node's own state reaches the threshold — the hook the
// error-contract test uses to force a mid-sweep failure.
type failAboveRule struct{ threshold float64 }

func (failAboveRule) Name() string                { return "fail-above" }
func (failAboveRule) Validate(inDeg, f int) error { return nil }
func (r failAboveRule) Update(own float64, received []core.ValueFrom, f int) (float64, error) {
	if own >= r.threshold {
		return 0, errors.New("threshold tripped")
	}
	return (core.TrimmedMean{}).Update(own, received, f)
}

// TestSweepErrorContract pins the partial-result contract: any failure —
// up-front validation or mid-sweep runtime — yields nil traces (never a
// completed prefix) and an error naming the failing scenario's index and
// name. Exercised at both worker counts.
func TestSweepErrorContract(t *testing.T) {
	base := scenarioBase(t)
	n := base.G.N()

	t.Run("validation", func(t *testing.T) {
		scens := []Scenario{
			{Name: "ok"},
			{Name: "short-initial", Initial: []float64{1, 2, 3}},
		}
		traces, err := runScenarios(base, scens)
		if err == nil {
			t.Fatal("expected validation error")
		}
		if traces != nil {
			t.Fatalf("traces must be nil on error, got %d", len(traces))
		}
		if !strings.Contains(err.Error(), "scenario 1") || !strings.Contains(err.Error(), "short-initial") {
			t.Errorf("error does not name the failing scenario: %v", err)
		}
	})

	t.Run("runtime", func(t *testing.T) {
		cfg := base
		cfg.Rule = failAboveRule{threshold: 50}
		cfg.Adversary = adversary.Conforming{}
		// Above threshold (and not all equal, so the epsilon stop does not
		// fire at round 0): the first fault-free update errors.
		hot := make([]float64, n)
		for i := range hot {
			hot[i] = 75 + float64(i)
		}
		scens := []Scenario{
			{Name: "cool"},
			{Name: "hot", Initial: hot},
			{Name: "cool2"},
		}
		for _, workers := range []int{1, 3} {
			res, err := Sweep(context.Background(), cfg, scens, SweepOptions{Workers: workers})
			if err == nil {
				t.Fatalf("workers=%d: expected runtime error", workers)
			}
			if res != nil {
				t.Fatalf("workers=%d: result must be nil on error", workers)
			}
			if !strings.Contains(err.Error(), "scenario 1") || !strings.Contains(err.Error(), "hot") {
				t.Errorf("workers=%d: error does not name the failing scenario: %v", workers, err)
			}
		}
	})
}

// TestSweepSizeAwareScheduling pins the scheduling satellite: with more
// than one effective worker, Sweep dispatches scenarios
// largest-estimated-cost-first (effective MaxRounds × edges × replay
// width), and the SweepResult is bit-identical to an unsorted
// (natural-order) execution — scheduling may only move work in time, never
// change results. A single-worker sweep keeps natural order, so its
// OnScenario stream arrives index-ordered.
func TestSweepSizeAwareScheduling(t *testing.T) {
	base := scenarioBase(t)
	base.Epsilon = 0 // run every scenario to its full (overridden) budget
	scens := []Scenario{
		{Name: "short", Adversary: adversary.Hug{}, MaxRounds: 10},
		{Name: "long", Adversary: adversary.Extremes{Amplitude: 20}, MaxRounds: 120},
		{Name: "base-budget", Adversary: adversary.Fixed{Value: 1e5}},
		{Name: "mid", Adversary: adversary.Hug{High: true}, MaxRounds: 40},
		{Name: "long-too", Adversary: adversary.Conforming{}, MaxRounds: 120},
	}
	cfgs := make([]Config, len(scens))
	for i := range scens {
		cfgs[i] = scens[i].apply(base)
		if err := cfgs[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}

	order := scheduleOrder(cfgs, 0)
	// Costs: 10, 120, 80 (base), 40, 120 → descending with stable ties:
	// 1, 4, 2, 3, 0.
	want := []int{1, 4, 2, 3, 0}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("scheduleOrder = %v, want %v", order, want)
		}
	}

	for _, workers := range []int{1, 3} {
		opts := SweepOptions{Workers: workers}
		scheduled, err := Sweep(context.Background(), base, scens, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		natural, err := sweepOrdered(context.Background(), Sequential{}, scens, cfgs, opts, []int{0, 1, 2, 3, 4})
		if err != nil {
			t.Fatalf("workers=%d natural: %v", workers, err)
		}
		for i := range scens {
			if scheduled.Traces[i].Rounds != cfgs[i].MaxRounds {
				t.Errorf("scenario %d ran %d rounds, want MaxRounds override %d",
					i, scheduled.Traces[i].Rounds, cfgs[i].MaxRounds)
			}
			assertTracesEqual(t, scens[i].Name, natural.Traces[i], scheduled.Traces[i])
		}
	}

	// A single-worker sweep keeps natural dispatch order: OnScenario
	// arrives strictly index-ascending.
	var seen []int
	if _, err := Sweep(context.Background(), base, scens, SweepOptions{
		Workers:    1,
		OnScenario: func(i int, _ string, _ *Trace) { seen = append(seen, i) },
	}); err != nil {
		t.Fatal(err)
	}
	for k := range seen {
		if seen[k] != k {
			t.Fatalf("workers=1 delivery order = %v, want index order", seen)
		}
	}

	// The MaxRounds override must match a direct run of the derived config.
	direct, err := Sequential{}.Run(cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), base, scens[1:2], SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, "maxrounds override", direct, res.Traces[0])
}

// TestSweepCancellation pins the context contract: a canceled sweep returns
// nil, wraps context.Canceled with the completed-scenario count, and stops
// within one scenario at any worker count.
func TestSweepCancellation(t *testing.T) {
	base := scenarioBase(t)
	base.Epsilon = 0
	base.MaxRounds = 50
	scens := parallelScenarios(base.G.N())

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, workers := range []int{1, 4} {
			res, err := Sweep(ctx, base, scens, SweepOptions{Workers: workers})
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: res=%v err=%v, want nil + context.Canceled", workers, res, err)
			}
			if !strings.Contains(err.Error(), "canceled after") {
				t.Errorf("workers=%d: error does not report progress: %v", workers, err)
			}
		}
	})

	t.Run("mid-sweep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Int64
		opts := SweepOptions{Workers: 2, OnScenario: func(int, string, *Trace) {
			if fired.Add(1) == 2 {
				cancel()
			}
		}}
		res, err := Sweep(ctx, base, scens, opts)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("res=%v err=%v, want nil + context.Canceled", res, err)
		}
		if n := fired.Load(); n >= int64(len(scens)) {
			t.Errorf("sweep ran all %d scenarios despite cancellation", n)
		}
	})
}

// TestSweepOnScenario checks the per-scenario observer hook: one call per
// completed scenario with the scenario's index, resolved name, and trace.
func TestSweepOnScenario(t *testing.T) {
	base := scenarioBase(t)
	scens := []Scenario{
		{Name: "first"},
		{Adversary: adversary.Extremes{Amplitude: 5}}, // name defaults to the adversary
	}
	var mu sync.Mutex
	got := map[int]string{}
	res, err := Sweep(context.Background(), base, scens, SweepOptions{
		Workers: 2,
		OnScenario: func(i int, name string, tr *Trace) {
			mu.Lock()
			defer mu.Unlock()
			if tr == nil || tr.Rounds == 0 {
				t.Errorf("scenario %d: bad trace in observer", i)
			}
			got[i] = name
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scens) || got[0] != "first" || got[1] != scens[1].Adversary.Name() {
		t.Fatalf("observer calls = %v", got)
	}
	if len(res.Traces) != len(scens) {
		t.Fatalf("traces = %d", len(res.Traces))
	}
}

// parallelScenarios builds one scenario per built-in adversary, each with a
// fresh strategy instance so no mutable state (rng streams, insider scratch)
// is shared across workers. Must be re-invoked per sweep: randomized
// strategies consume their stream.
func parallelScenarios(n int) []Scenario {
	mks := []struct {
		name string
		mk   func() adversary.Strategy
	}{
		{"conforming", func() adversary.Strategy { return adversary.Conforming{} }},
		{"fixed-high", func() adversary.Strategy { return adversary.Fixed{Value: 1e6} }},
		{"fixed-low", func() adversary.Strategy { return adversary.Fixed{Value: -1e6} }},
		{"silent", func() adversary.Strategy { return adversary.Silent{} }},
		{"noise", func() adversary.Strategy {
			return &adversary.RandomNoise{Rng: rand.New(rand.NewSource(4242)), Lo: -9, Hi: 9}
		}},
		{"extremes", func() adversary.Strategy { return adversary.Extremes{Amplitude: 40} }},
		{"partition", func() adversary.Strategy {
			return adversary.PartitionAttack{
				L: nodeset.FromMembers(n, 2, 3), R: nodeset.FromMembers(n, 4, 5),
				Low: 0, High: 11, Eps: 0.5,
			}
		}},
		{"hug-high", func() adversary.Strategy { return adversary.Hug{High: true} }},
		{"hug-low", func() adversary.Strategy { return adversary.Hug{} }},
		{"insider-high", func() adversary.Strategy { return &adversary.Insider{High: true} }},
		{"insider-low", func() adversary.Strategy { return &adversary.Insider{} }},
	}
	var scens []Scenario
	for _, m := range mks {
		scens = append(scens, Scenario{Name: m.name, Adversary: m.mk()})
		// A second variation per strategy (different fault set) so the
		// sweep is longer than the worker count and fault-set swapping is
		// exercised mid-sweep.
		scens = append(scens, Scenario{
			Name: m.name + "/moved", Adversary: m.mk(),
			Faulty: nodeset.FromMembers(n, 1, 7),
		})
	}
	return scens
}

// TestSweepParallelBitIdentical is the race-mode equivalence gate: a
// parallel sweep (workers > 1) must be bit-identical to the sequential sweep
// on every built-in adversary, for every pooled engine. Run under -race in
// CI, this also proves the worker-private runners share no simulation state.
func TestSweepParallelBitIdentical(t *testing.T) {
	base := scenarioBase(t)
	n := base.G.N()
	for _, eng := range []Engine{Sequential{}, Matrix{}} {
		t.Run(eng.Name(), func(t *testing.T) {
			seq, err := Sweep(context.Background(), base, parallelScenarios(n), SweepOptions{Engine: eng, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 0} { // 0 = GOMAXPROCS
				par, err := Sweep(context.Background(), base, parallelScenarios(n), SweepOptions{Engine: eng, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(par.Traces) != len(seq.Traces) {
					t.Fatalf("workers=%d: %d traces, want %d", workers, len(par.Traces), len(seq.Traces))
				}
				for i := range seq.Traces {
					assertTracesEqual(t, seq.Traces[i].AdversaryName, seq.Traces[i], par.Traces[i])
				}
			}
		})
	}
}

// TestSweepMatrixBatchConformance pins the composed batching dimensions:
// Sweep with the Matrix engine and Extras must reproduce, bit for bit, both
// the per-scenario primary traces and the per-scenario finals of the
// record-then-replay reference run on each derived config alone.
func TestSweepMatrixBatchConformance(t *testing.T) {
	base := scenarioBase(t)
	n := base.G.N()
	const K = 7
	extras := make([][]float64, K)
	rng := rand.New(rand.NewSource(9))
	for x := range extras {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*20 - 5
		}
		extras[x] = v
	}
	scens := []Scenario{
		{Name: "hug", Adversary: adversary.Hug{High: true}},
		{Name: "extremes", Adversary: adversary.Extremes{Amplitude: 30}},
		{Name: "fault-free", HasFaulty: true, Adversary: adversary.Conforming{}},
		{Name: "moved", Faulty: nodeset.FromMembers(n, 4, 8), Adversary: adversary.Fixed{Value: 1e4}},
	}
	for _, workers := range []int{1, 2} {
		res, err := Sweep(context.Background(), base, scens, SweepOptions{Engine: Matrix{}, Workers: workers, Extras: extras})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Finals) != len(scens) {
			t.Fatalf("workers=%d: %d finals, want %d", workers, len(res.Finals), len(scens))
		}
		for i, s := range scens {
			cfg := s.apply(base)
			wantTr, wantFinals, err := runBatchRetained(cfg, extras)
			if err != nil {
				t.Fatal(err)
			}
			assertTracesEqual(t, s.Name, wantTr, res.Traces[i])
			for x := range wantFinals {
				for j := range wantFinals[x] {
					if math.Float64bits(wantFinals[x][j]) != math.Float64bits(res.Finals[i][x][j]) {
						t.Fatalf("workers=%d scenario %s extra %d node %d: %v != %v",
							workers, s.Name, x, j, res.Finals[i][x][j], wantFinals[x][j])
					}
				}
			}
		}
	}
	// Extras with a non-matrix engine is a configuration error.
	if _, err := Sweep(context.Background(), base, scens, SweepOptions{Engine: Sequential{}, Extras: extras}); err == nil {
		t.Fatal("Extras with the sequential engine should be rejected")
	}
	// Mis-sized extra vectors are rejected before any simulation.
	if _, err := Sweep(context.Background(), base, scens, SweepOptions{Engine: Matrix{}, Extras: [][]float64{{1, 2}}}); err == nil {
		t.Fatal("short extra vector should be rejected")
	}
}

// TestSweepEmptyAndGraphChecks covers the trivial contracts: an empty
// scenario list, and a base without a graph, which Sweep rejects before it
// builds any engine state.
func TestSweepEmptyAndGraphChecks(t *testing.T) {
	base := scenarioBase(t)
	res, err := Sweep(context.Background(), base, nil, SweepOptions{})
	if err != nil || len(res.Traces) != 0 {
		t.Fatalf("empty sweep: res=%v err=%v", res, err)
	}

	base.G = nil
	for _, eng := range []Engine{Sequential{}, Matrix{}} {
		if _, err := Sweep(context.Background(), base, []Scenario{{}}, SweepOptions{Engine: eng}); err == nil {
			t.Fatalf("%s sweep must reject a config without a graph", eng.Name())
		}
	}
}
