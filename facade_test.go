package iabc_test

// Facade equivalence: every iabc entry point must produce bit-identical
// results to the internal implementation it fronts — the facade adds
// context, options, and observation, never semantics.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"iabc"
	"iabc/internal/adversary"
	"iabc/internal/async"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/topology"
)

func facadeGraph(t testing.TB) *iabc.Graph {
	t.Helper()
	g, err := iabc.CoreNetwork(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func facadeInitial(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i) * 1.5
	}
	return v
}

func tracesEqual(t *testing.T, label string, want, got *iabc.Trace) {
	t.Helper()
	if want.Rounds != got.Rounds || want.Converged != got.Converged {
		t.Fatalf("%s: rounds/converged %d/%v vs %d/%v", label, got.Rounds, got.Converged, want.Rounds, want.Converged)
	}
	for r := 0; r <= want.Rounds; r++ {
		if math.Float64bits(want.U[r]) != math.Float64bits(got.U[r]) ||
			math.Float64bits(want.Mu[r]) != math.Float64bits(got.Mu[r]) {
			t.Fatalf("%s: round %d differs: U %v vs %v, µ %v vs %v",
				label, r, got.U[r], want.U[r], got.Mu[r], want.Mu[r])
		}
	}
	for i := range want.Final {
		if math.Float64bits(want.Final[i]) != math.Float64bits(got.Final[i]) {
			t.Fatalf("%s: final[%d] %v vs %v", label, i, got.Final[i], want.Final[i])
		}
	}
}

// TestSimulateMatchesEngines pins Simulate against each internal engine's
// Run, bit for bit, and checks the Outcome summary fields.
func TestSimulateMatchesEngines(t *testing.T) {
	g := facadeGraph(t)
	n := g.N()
	initial := facadeInitial(n)
	cfg := sim.Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(n, 0, 1), Initial: initial,
		Rule: core.TrimmedMean{}, Adversary: adversary.Hug{High: true},
		MaxRounds: 120, Epsilon: 1e-9,
	}
	engines := []struct {
		sel iabc.Engine
		eng sim.Engine
	}{
		{iabc.Sequential, sim.Sequential{}},
		{iabc.Matrix, sim.Matrix{}},
	}
	for _, tc := range engines {
		t.Run(tc.sel.String(), func(t *testing.T) {
			want, err := tc.eng.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rounds int
			out, err := iabc.Simulate(context.Background(), g,
				iabc.WithEngine(tc.sel),
				iabc.WithF(2),
				iabc.WithFaulty(0, 1),
				iabc.WithInitial(initial),
				iabc.WithAdversary(iabc.Hug{High: true}),
				iabc.WithMaxRounds(120),
				iabc.WithEpsilon(1e-9),
				iabc.WithObserver(func(e iabc.Event) {
					if e.Kind == iabc.EventRound {
						rounds++
					}
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			tracesEqual(t, tc.sel.String(), want, out.Trace)
			if out.Rounds != want.Rounds || out.Converged != want.Converged ||
				math.Float64bits(out.FinalRange) != math.Float64bits(want.FinalRange()) {
				t.Fatalf("outcome summary %+v does not match trace", out)
			}
			if rounds != want.Rounds+1 { // rounds 0..Rounds inclusive
				t.Errorf("observer saw %d round events, want %d", rounds, want.Rounds+1)
			}
		})
	}
}

// TestSimulateAsyncMatchesRun pins the Async engine arm against async.Run.
func TestSimulateAsyncMatchesRun(t *testing.T) {
	g, err := iabc.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	initial := []float64{0, 1, 2, 3, 4, 5, 6}
	mk := func() async.Config {
		return async.Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(7, 6), Initial: initial,
			Rule: core.TrimmedMean{}, Adversary: adversary.Extremes{Amplitude: 10},
			Delays:    &async.Uniform{B: 2, Rng: rand.New(rand.NewSource(7))},
			MaxRounds: 200, Epsilon: 1e-6,
		}
	}
	want, err := async.Run(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	var changes int
	out, err := iabc.Simulate(context.Background(), g,
		iabc.WithEngine(iabc.Async),
		iabc.WithF(1),
		iabc.WithFaulty(6),
		iabc.WithInitial(initial),
		iabc.WithAdversary(iabc.Extremes{Amplitude: 10}),
		iabc.WithDelays(&iabc.UniformDelay{B: 2, Rng: rand.New(rand.NewSource(7))}),
		iabc.WithMaxRounds(200),
		iabc.WithEpsilon(1e-6),
		iabc.WithObserver(func(e iabc.Event) { changes++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.AsyncTrace == nil || out.Trace != nil {
		t.Fatal("async outcome must carry AsyncTrace only")
	}
	if out.Converged != want.Converged || out.AsyncTrace.Deliveries != want.Deliveries ||
		out.AsyncTrace.Time != want.Time {
		t.Fatalf("outcome %+v does not match async.Run (deliveries %d, time %v)",
			out, want.Deliveries, want.Time)
	}
	for i := range want.Final {
		if math.Float64bits(out.Final[i]) != math.Float64bits(want.Final[i]) {
			t.Fatalf("final[%d] %v vs %v", i, out.Final[i], want.Final[i])
		}
	}
	if changes == 0 {
		t.Error("observer saw no state-change events")
	}
	if out.Rounds <= 0 {
		t.Errorf("async outcome rounds = %d", out.Rounds)
	}
}

// TestSweepMatchesSim pins the facade sweep — including the composed
// matrix-replay dimension — against sim.Sweep.
func TestSweepMatchesSim(t *testing.T) {
	g := facadeGraph(t)
	n := g.N()
	initial := facadeInitial(n)
	scens := []iabc.Scenario{
		{Name: "hug", Adversary: iabc.Hug{High: true}},
		{Name: "extremes", Adversary: iabc.Extremes{Amplitude: 30}},
		{Name: "short", Adversary: iabc.Fixed{Value: 1e5}, MaxRounds: 20},
	}
	base := sim.Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(n, 0, 1), Initial: initial,
		Rule: core.TrimmedMean{}, Adversary: adversary.Hug{High: true},
		MaxRounds: 90,
	}
	extras := [][]float64{facadeInitial(n), make([]float64, n)}

	want, err := sim.Sweep(context.Background(), base, scens,
		sim.SweepOptions{Engine: sim.Matrix{}, Workers: 2, Extras: extras})
	if err != nil {
		t.Fatal(err)
	}
	done := map[int]string{}
	got, err := iabc.Sweep(context.Background(), g, scens,
		iabc.WithEngine(iabc.Matrix),
		iabc.WithF(2),
		iabc.WithFaulty(0, 1),
		iabc.WithInitial(initial),
		iabc.WithAdversary(iabc.Hug{High: true}),
		iabc.WithMaxRounds(90),
		iabc.WithWorkers(2),
		iabc.WithExtras(extras),
		iabc.WithObserver(func(e iabc.Event) {
			if e.Kind == iabc.EventScenarioDone {
				done[e.Scenario] = e.Name
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		tracesEqual(t, scens[i].Name, want.Traces[i], got.Traces[i])
		for x := range want.Finals[i] {
			for j := range want.Finals[i][x] {
				if math.Float64bits(want.Finals[i][x][j]) != math.Float64bits(got.Finals[i][x][j]) {
					t.Fatalf("finals[%d][%d][%d] differ", i, x, j)
				}
			}
		}
	}
	if len(done) != len(scens) || done[0] != "hug" || done[2] != "short" {
		t.Fatalf("scenario observer calls = %v", done)
	}
}

// TestCheckMatchesCondition pins the facade check — sync and async
// thresholds, both worker counts — against the internal checker, counters
// included.
func TestCheckMatchesCondition(t *testing.T) {
	sat := facadeGraph(t)
	viol, err := iabc.Chord(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		g     *iabc.Graph
		f     int
		async bool
	}{
		{"satisfied", sat, 2, false},
		{"violated", viol, 2, false},
		{"async", sat, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			threshold := condition.SyncThreshold(tc.f)
			if tc.async {
				threshold = condition.AsyncThreshold(tc.f)
			}
			want, err := condition.CheckThreshold(tc.g, tc.f, threshold)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				opts := []iabc.Option{iabc.WithWorkers(workers)}
				if tc.async {
					opts = append(opts, iabc.WithAsyncCondition())
				}
				var progressed int64
				opts = append(opts, iabc.WithObserver(func(e iabc.Event) {
					if e.Kind == iabc.EventCheckProgress {
						progressed++
					}
				}))
				got, err := iabc.Check(context.Background(), tc.g, tc.f, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got.Satisfied != want.Satisfied {
					t.Fatalf("workers=%d: verdict %v, want %v", workers, got.Satisfied, want.Satisfied)
				}
				if want.Witness != nil {
					if got.Witness == nil || !got.Witness.F.Equal(want.Witness.F) ||
						!got.Witness.L.Equal(want.Witness.L) || !got.Witness.R.Equal(want.Witness.R) {
						t.Fatalf("workers=%d: witness %v, want %v", workers, got.Witness, want.Witness)
					}
				}
				if workers == 1 && got.CandidatesExamined != want.CandidatesExamined {
					t.Errorf("workers=1 counters differ: %d vs %d", got.CandidatesExamined, want.CandidatesExamined)
				}
				if want.Satisfied && progressed == 0 {
					t.Errorf("workers=%d: no check progress events", workers)
				}
			}
		})
	}
}

// TestMaxFMatchesCondition pins the facade MaxF against the internal scan.
func TestMaxFMatchesCondition(t *testing.T) {
	g, err := iabc.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, wantStats, err := condition.MaxFScan(context.Background(), g, condition.MaxFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var checks []int
	best, stats, err := iabc.MaxFWithStats(context.Background(), g,
		iabc.WithObserver(func(e iabc.Event) {
			if e.Kind == iabc.EventCheckDone {
				checks = append(checks, e.F)
			}
		}))
	if err != nil || best != wantBest {
		t.Fatalf("best=%d err=%v, want %d", best, err, wantBest)
	}
	if stats != wantStats {
		t.Fatalf("stats %+v, want %+v", stats, wantStats)
	}
	if len(checks) != stats.ChecksRun {
		t.Fatalf("observer saw %d checks, stats say %d", len(checks), stats.ChecksRun)
	}
	got, err := iabc.MaxF(context.Background(), g)
	if err != nil || got != wantBest {
		t.Fatalf("MaxF = %d (err %v), want %d", got, err, wantBest)
	}
}

// TestOptionErrors covers the facade's own validation: unknown adversary
// names, conflicting replay options, bad faulty ids, and engine misuse.
func TestOptionErrors(t *testing.T) {
	g := facadeGraph(t)
	initial := facadeInitial(g.N())
	ctx := context.Background()
	cases := []struct {
		name string
		run  func() error
	}{
		{"unknown adversary", func() error {
			_, err := iabc.Simulate(ctx, g, iabc.WithInitial(initial), iabc.WithNamedAdversary("warp-core"))
			return err
		}},
		{"batch and extras", func() error {
			_, err := iabc.Sweep(ctx, g, []iabc.Scenario{{}},
				iabc.WithInitial(initial), iabc.WithBatch(2), iabc.WithExtras([][]float64{initial}))
			return err
		}},
		{"negative batch", func() error {
			_, err := iabc.Sweep(ctx, g, []iabc.Scenario{{}}, iabc.WithInitial(initial), iabc.WithBatch(-1))
			return err
		}},
		{"faulty out of range", func() error {
			_, err := iabc.Simulate(ctx, g, iabc.WithInitial(initial), iabc.WithFaulty(99),
				iabc.WithAdversary(iabc.Silent{}))
			return err
		}},
		{"negative faulty", func() error {
			_, err := iabc.Simulate(ctx, g, iabc.WithInitial(initial), iabc.WithFaulty(-1))
			return err
		}},
		{"async sweep", func() error {
			_, err := iabc.Sweep(ctx, g, []iabc.Scenario{{}},
				iabc.WithInitial(initial), iabc.WithEngine(iabc.Async))
			return err
		}},
		{"async simulate without delays", func() error {
			_, err := iabc.Simulate(ctx, g, iabc.WithInitial(initial), iabc.WithEngine(iabc.Async))
			return err
		}},
		{"missing initial", func() error {
			_, err := iabc.Simulate(ctx, g)
			return err
		}},
		{"extras on sequential engine", func() error {
			_, err := iabc.Sweep(ctx, g, []iabc.Scenario{{}}, iabc.WithInitial(initial),
				iabc.WithEngine(iabc.Sequential), iabc.WithExtras([][]float64{initial}))
			return err
		}},
		{"extra of wrong length", func() error {
			_, err := iabc.Sweep(ctx, g, []iabc.Scenario{{}}, iabc.WithInitial(initial),
				iabc.WithEngine(iabc.Matrix), iabc.WithExtras([][]float64{initial, initial[:len(initial)-1]}))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.run() == nil {
				t.Fatal("expected an error")
			}
		})
	}
}

// TestWithBatchReplay checks the synthesized replay grid: deterministic in
// the seed and equivalent to an explicit WithExtras of the same vectors.
func TestWithBatchReplay(t *testing.T) {
	g := facadeGraph(t)
	n := g.N()
	initial := facadeInitial(n)
	scens := []iabc.Scenario{{Name: "hug", Adversary: iabc.Hug{High: true}}}
	opts := func(extra ...iabc.Option) []iabc.Option {
		return append([]iabc.Option{
			iabc.WithF(2), iabc.WithFaulty(0, 1), iabc.WithInitial(initial),
			iabc.WithMaxRounds(40), iabc.WithSeed(11),
		}, extra...)
	}
	a, err := iabc.Sweep(context.Background(), g, scens, opts(iabc.WithBatch(3))...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := iabc.Sweep(context.Background(), g, scens, opts(iabc.WithBatch(3))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Finals[0]) != 3 {
		t.Fatalf("finals = %d, want 3", len(a.Finals[0]))
	}
	for x := range a.Finals[0] {
		for j := range a.Finals[0][x] {
			if math.Float64bits(a.Finals[0][x][j]) != math.Float64bits(b.Finals[0][x][j]) {
				t.Fatal("WithBatch is not deterministic in the seed")
			}
		}
	}
	// The same vectors derived by hand must replay identically.
	rng := rand.New(rand.NewSource(11))
	extras := make([][]float64, 3)
	for x := range extras {
		v := make([]float64, n)
		for i := range v {
			v[i] = initial[i] + rng.Float64() - 0.5
		}
		extras[x] = v
	}
	c, err := iabc.Sweep(context.Background(), g, scens, opts(iabc.WithExtras(extras))...)
	if err != nil {
		t.Fatal(err)
	}
	for x := range c.Finals[0] {
		for j := range c.Finals[0][x] {
			if math.Float64bits(a.Finals[0][x][j]) != math.Float64bits(c.Finals[0][x][j]) {
				t.Fatal("WithBatch vectors differ from the documented derivation")
			}
		}
	}

	// Simulate does not consume the replay dimension: WithBatch is ignored
	// per the Option contract and must not flip the engine to Matrix.
	out, err := iabc.Simulate(context.Background(), g,
		iabc.WithF(2), iabc.WithFaulty(0, 1), iabc.WithInitial(initial),
		iabc.WithAdversary(iabc.Hug{High: true}), iabc.WithMaxRounds(40),
		iabc.WithBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != iabc.Sequential {
		t.Fatalf("Simulate with WithBatch selected engine %v, want sequential", out.Engine)
	}
}

// TestFacadeTopologiesAndHelpers smoke-tests the re-exported vocabulary.
func TestFacadeTopologiesAndHelpers(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*iabc.Graph, error)
		n    int
	}{
		{"complete", func() (*iabc.Graph, error) { return iabc.Complete(5) }, 5},
		{"core", func() (*iabc.Graph, error) { return iabc.CoreNetwork(7, 2) }, 7},
		{"chord", func() (*iabc.Graph, error) { return iabc.Chord(9, 2) }, 9},
		{"hypercube", func() (*iabc.Graph, error) { return iabc.Hypercube(3) }, 8},
		{"circulant", func() (*iabc.Graph, error) { return iabc.Circulant(6, []int{1, 2}) }, 6},
	} {
		g, err := tc.mk()
		if err != nil || g.N() != tc.n {
			t.Fatalf("%s: n=%v err=%v", tc.name, g, err)
		}
		// The facade constructors must hand out the same graphs as the
		// internal package.
		ref, err := topology.Complete(5)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "complete" && !g.Equal(ref) {
			t.Fatal("facade Complete differs from topology.Complete")
		}
	}
	if alpha, err := iabc.Alpha(facadeGraph(t), 2); err != nil || !(alpha > 0 && alpha < 1) {
		t.Fatalf("Alpha = %v, %v", alpha, err)
	}
	if _, err := iabc.RoundsToEpsilonBound(10, 2, 0.5, 1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if len(iabc.QuickScreen(facadeGraph(t), 2)) != 0 {
		t.Fatal("core(10,2) must pass the quick screen")
	}
	if names := iabc.AdversaryNames(); len(names) == 0 {
		t.Fatal("no adversary names")
	} else {
		for _, name := range names {
			if _, err := iabc.AdversaryByName(name, 1); err != nil {
				t.Fatalf("AdversaryByName(%q): %v", name, err)
			}
		}
	}
	rep, err := iabc.Repair(viol(t), 2, 81)
	if err != nil || len(rep.Added) == 0 {
		t.Fatalf("repair: %v err=%v", rep, err)
	}
}

func viol(t *testing.T) *iabc.Graph {
	t.Helper()
	g, err := iabc.Chord(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
