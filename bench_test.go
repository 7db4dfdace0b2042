package iabc_test

// Layer micro-benchmarks for the hot paths (the trimmed-mean update, the
// exact condition checker, propagation, both simulation engines, the async
// queue, distributed dispatch). The end-to-end ruler is BENCHMARK.json
// (`go run ./benchmark`); the paper experiments are a byte-pinned regression
// gate (internal/experiments), not a benchmark.
//
// Run everything:   go test -run '^$' -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/async"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/distrib"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/topology"
)

// BenchmarkTrimmedMeanUpdate measures one Z_i evaluation (equation (2)) at
// realistic in-degrees: the copy+sort reference (Update) against the
// quickselect fast path (UpdateInto) that the engines run on. The fast path
// is the hot one — it must stay at 0 allocs/op.
func BenchmarkTrimmedMeanUpdate(b *testing.B) {
	rule := core.TrimmedMean{}
	for _, tc := range []struct{ inDeg, f int }{
		{3, 1}, {7, 2}, {15, 3}, {63, 5},
	} {
		rng := rand.New(rand.NewSource(1))
		received := make([]core.ValueFrom, tc.inDeg)
		for i := range received {
			received[i] = core.ValueFrom{From: i, Value: rng.Float64()}
		}
		b.Run(benchName("indeg", tc.inDeg, "f", tc.f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rule.Update(0.5, received, tc.f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(benchName("indeg", tc.inDeg, "f", tc.f)+"/fast", func(b *testing.B) {
			var scratch core.Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rule.UpdateInto(&scratch, 0.5, received, tc.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConditionCheck measures the exact Theorem 1 decision across the
// families the paper studies. core_n19_f6 is the degree-bound pruning
// showcase: ~342M candidate sets accounted, >99.9% skipped unvisited —
// a size the unpruned enumeration could not finish in reasonable time.
func BenchmarkConditionCheck(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
		f    int
	}{
		{"core_n7_f2", mustCore(b, 7, 2), 2},
		{"core_n13_f4", mustCore(b, 13, 4), 4},
		{"core_n16_f2", mustCore(b, 16, 2), 2},
		{"core_n19_f6", mustCore(b, 19, 6), 6},
		{"chord_n7_f2", mustChord(b, 7, 2), 2},
		{"chord_n16_f2", mustChord(b, 16, 2), 2},
		{"hypercube_d4_f1", mustCube(b, 4), 1},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := condition.Check(tc.g, tc.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustCore(tb testing.TB, n, f int) *graph.Graph {
	tb.Helper()
	g, err := topology.CoreNetwork(n, f)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func mustChord(tb testing.TB, n, f int) *graph.Graph {
	tb.Helper()
	g, err := topology.Chord(n, f)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func mustCube(tb testing.TB, d int) *graph.Graph {
	tb.Helper()
	g, err := topology.Hypercube(d)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// benchName builds names like "indeg=7/f=2".
func benchName(k1 string, v1 int, k2 string, v2 int) string {
	return fmt.Sprintf("%s=%d/%s=%d", k1, v1, k2, v2)
}

// BenchmarkPropagates measures Definition 3 on a long chain (worst-case
// step count).
func BenchmarkPropagates(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g, err := topology.DirectedCycle(n)
		if err != nil {
			b.Fatal(err)
		}
		a := nodeset.FromMembers(n, 0)
		rest := a.Complement()
		b.Run(benchName("cycle", n, "th", 1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := condition.Propagates(g, a, rest, 1)
				if err != nil || !p.OK {
					b.Fatalf("err=%v ok=%v", err, p.OK)
				}
			}
		})
	}
}

// BenchmarkEngineRound compares the engines' per-round throughput on a
// mid-sized core network under attack. The plain sub-benchmarks measure a
// whole Run per op (setup included); the -steady variants set MaxRounds to
// b.N so one op is one round of the hot loop with setup amortized away —
// with an EdgeWriter adversary these must report 0 allocs/op.
func BenchmarkEngineRound(b *testing.B) {
	const (
		n, f   = 16, 2
		rounds = 100
	)
	g := mustCore(b, n, f)
	faulty := nodeset.FromMembers(n, 0, 1)
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i)
	}
	cfg := sim.Config{
		G: g, F: f, Faulty: faulty, Initial: initial,
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Hug{High: true},
		MaxRounds: rounds,
	}
	engines := []sim.Engine{sim.Sequential{}, sim.Matrix{}}
	for _, eng := range engines {
		b.Run(eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := eng.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if tr.Rounds != rounds {
					b.Fatalf("rounds = %d", tr.Rounds)
				}
			}
			b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
	for _, eng := range engines {
		b.Run(eng.Name()+"-steady", func(b *testing.B) {
			b.ReportAllocs()
			steady := cfg
			steady.MaxRounds = b.N
			tr, err := eng.Run(steady)
			if err != nil {
				b.Fatal(err)
			}
			if tr.Rounds != b.N {
				b.Fatalf("rounds = %d, want %d", tr.Rounds, b.N)
			}
		})
	}
}

// BenchmarkRunScenarios measures engine-level scenario batching: K
// adversary variations sharing one engine setup in a single-worker
// sim.Sweep, against K independent Sequential runs of the same configs.
func BenchmarkRunScenarios(b *testing.B) {
	const (
		n, f   = 16, 2
		rounds = 100
	)
	g := mustCore(b, n, f)
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i)
	}
	base := sim.Config{
		G: g, F: f, Faulty: nodeset.FromMembers(n, 0, 1), Initial: initial,
		Rule: core.TrimmedMean{}, MaxRounds: rounds,
		Adversary: adversary.Hug{High: true},
	}
	scens := []sim.Scenario{
		{Adversary: adversary.Hug{High: true}},
		{Adversary: adversary.Hug{}},
		{Adversary: adversary.Extremes{Amplitude: 50}},
		{Adversary: adversary.Fixed{Value: 1e6}},
		{Adversary: adversary.Fixed{Value: -1e6}},
		{Adversary: &adversary.Insider{High: true}},
		{Adversary: &adversary.Insider{}},
		{Adversary: adversary.Conforming{}},
	}
	b.Run("batched8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Sweep(context.Background(), base, scens, sim.SweepOptions{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Traces) != len(scens) {
				b.Fatalf("traces = %d", len(res.Traces))
			}
		}
		b.ReportMetric(float64(rounds*len(scens))*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
	})
	b.Run("separate8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sc := range scens {
				cfg := base
				cfg.Adversary = sc.Adversary
				if _, err := (sim.Sequential{}).Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(rounds*len(scens))*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
	})
	// The parallel sweep: same scenarios fanned across workers, one private
	// engine per worker, bit-identical traces. Speedup tracks core count
	// (compare against batched8 on a multi-core machine).
	for _, workers := range []int{2, 4, 0} {
		name := fmt.Sprintf("parallel8/workers=%d", workers)
		if workers == 0 {
			name = "parallel8/workers=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.Sweep(context.Background(), base, scens, sim.SweepOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Traces) != len(scens) {
					b.Fatalf("traces = %d", len(res.Traces))
				}
			}
			b.ReportMetric(float64(rounds*len(scens))*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
	// The matrix engine's pooled runner through the same sweep.
	b.Run("pooled8/matrix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Sweep(context.Background(), base, scens, sim.SweepOptions{Engine: sim.Matrix{}, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rounds*len(scens))*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
	})
}

// BenchmarkMatrixScenarioSweep measures the composed batching dimensions:
// 8 adversary scenarios, each recorded once on the matrix engine and
// SoA-replayed over 64 extra initial vectors, fanned across all cores. The
// metric counts replayed vector-rounds, comparable to BenchmarkMatrixBatch.
func BenchmarkMatrixScenarioSweep(b *testing.B) {
	const (
		n, f   = 16, 2
		rounds = 100
		batch  = 64
	)
	g := mustCore(b, n, f)
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i)
	}
	base := sim.Config{
		G: g, F: f, Faulty: nodeset.FromMembers(n, 0, 1), Initial: initial,
		Rule: core.TrimmedMean{}, MaxRounds: rounds,
		Adversary: adversary.Hug{High: true},
	}
	scens := []sim.Scenario{
		{Adversary: adversary.Hug{High: true}},
		{Adversary: adversary.Hug{}},
		{Adversary: adversary.Extremes{Amplitude: 50}},
		{Adversary: adversary.Fixed{Value: 1e6}},
		{Adversary: adversary.Fixed{Value: -1e6}},
		{Adversary: &adversary.Insider{High: true}},
		{Adversary: &adversary.Insider{}},
		{Adversary: adversary.Conforming{}},
	}
	extras := make([][]float64, batch)
	for x := range extras {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + x)
		}
		extras[x] = v
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Sweep(context.Background(), base, scens, sim.SweepOptions{
			Engine: sim.Matrix{}, Workers: 0, Extras: extras,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Finals) != len(scens) {
			b.Fatalf("finals = %d", len(res.Finals))
		}
	}
	b.ReportMetric(float64(rounds*len(scens)*batch)*float64(b.N)/b.Elapsed().Seconds(), "vecrounds/s")
}

// BenchmarkSequentialSteadyState isolates the engine's own round loop — no
// adversary maps, fault-free network — where the flat-buffer rewrite should
// hold per-round allocation at (amortized) zero.
func BenchmarkSequentialSteadyState(b *testing.B) {
	const (
		n      = 32
		rounds = 100
	)
	g := mustCore(b, n, 3)
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := sim.Sequential{}.Run(sim.Config{
			G: g, F: 3, Initial: initial,
			Rule:      core.TrimmedMean{},
			MaxRounds: rounds,
		})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Rounds != rounds {
			b.Fatalf("rounds = %d", tr.Rounds)
		}
	}
	b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkMatrixBatch measures the amortized multi-scenario path: a
// one-scenario Matrix sweep whose primary run streams each round program
// over a batch of initial vectors (SweepOptions.Extras). The metric is
// vector-rounds per second over the batch.
func BenchmarkMatrixBatch(b *testing.B) {
	const (
		n, f   = 16, 2
		rounds = 100
		batch  = 64
	)
	g := mustCore(b, n, f)
	faulty := nodeset.FromMembers(n, 0, 1)
	initial := make([]float64, n)
	extras := make([][]float64, batch)
	for x := range extras {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + x)
		}
		extras[x] = v
	}
	for i := range initial {
		initial[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Sweep(context.Background(), sim.Config{
			G: g, F: f, Faulty: faulty, Initial: initial,
			Rule:      core.TrimmedMean{},
			Adversary: adversary.Hug{High: true},
			MaxRounds: rounds,
		}, []sim.Scenario{{}}, sim.SweepOptions{Engine: sim.Matrix{}, Workers: 1, Extras: extras})
		if err != nil {
			b.Fatal(err)
		}
		if res.Traces[0].Rounds != rounds || len(res.Finals[0]) != batch {
			b.Fatalf("rounds = %d, finals = %d", res.Traces[0].Rounds, len(res.Finals[0]))
		}
	}
	b.ReportMetric(float64(rounds)*batch*float64(b.N)/b.Elapsed().Seconds(), "vecrounds/s")
}

// BenchmarkMatrixStreamBatch is BenchmarkMatrixBatch on a 20× horizon: the
// streaming replay keeps program memory at O(edges) however many rounds
// run, so the long-horizon rate should match the short one — any gap is a
// regression in the stream-bound path.
func BenchmarkMatrixStreamBatch(b *testing.B) {
	const (
		n, f   = 16, 2
		rounds = 2000
		batch  = 64
	)
	g := mustCore(b, n, f)
	faulty := nodeset.FromMembers(n, 0, 1)
	initial := make([]float64, n)
	extras := make([][]float64, batch)
	for x := range extras {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + x)
		}
		extras[x] = v
	}
	for i := range initial {
		initial[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Sweep(context.Background(), sim.Config{
			G: g, F: f, Faulty: faulty, Initial: initial,
			Rule:      core.TrimmedMean{},
			Adversary: adversary.Hug{High: true},
			MaxRounds: rounds,
		}, []sim.Scenario{{}}, sim.SweepOptions{Engine: sim.Matrix{}, Workers: 1, Extras: extras})
		if err != nil {
			b.Fatal(err)
		}
		if res.Traces[0].Rounds != rounds || len(res.Finals[0]) != batch {
			b.Fatalf("rounds = %d, finals = %d", res.Traces[0].Rounds, len(res.Finals[0]))
		}
	}
	b.ReportMetric(float64(rounds)*batch*float64(b.N)/b.Elapsed().Seconds(), "vecrounds/s")
}

// BenchmarkAsyncCalendarQueue isolates the event-loop steady state the
// calendar queue carries: constant delays, no epsilon stop, an EdgeWriter
// adversary — the run is all queue push/pop and quorum bookkeeping. The
// metric counts delivered messages.
func BenchmarkAsyncCalendarQueue(b *testing.B) {
	g, err := topology.Complete(7)
	if err != nil {
		b.Fatal(err)
	}
	initial := []float64{0, 1, 2, 3, 4, 5, 6}
	b.ReportAllocs()
	var delivered float64
	for i := 0; i < b.N; i++ {
		tr, err := async.Run(context.Background(), async.Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(7, 6),
			Initial: initial, Rule: core.TrimmedMean{},
			Adversary: adversary.Fixed{Value: 1e4},
			Delays:    async.Fixed{D: 1},
			MaxRounds: 400,
		})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Converged {
			b.Fatal("steady-state run unexpectedly converged")
		}
		delivered += float64(tr.Deliveries)
	}
	b.ReportMetric(delivered/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAsyncRun measures the discrete-event engine end to end.
func BenchmarkAsyncRun(b *testing.B) {
	g, err := topology.Complete(7)
	if err != nil {
		b.Fatal(err)
	}
	initial := []float64{0, 1, 2, 3, 4, 5, 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := async.Run(context.Background(), async.Config{
			G: g, F: 1, Faulty: nodeset.FromMembers(7, 6),
			Initial: initial, Rule: core.TrimmedMean{},
			Adversary: adversary.Extremes{Amplitude: 10},
			Delays:    &async.Uniform{B: 2, Rng: rand.New(rand.NewSource(int64(i)))},
			MaxRounds: 100, Epsilon: 1e-6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkConditionCheckParallel contrasts the parallel checker with the
// sequential one (BenchmarkConditionCheck/core_n13_f4 is the comparable
// sequential row).
func BenchmarkConditionCheckParallel(b *testing.B) {
	g := mustCore(b, 13, 4)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := condition.CheckScan(context.Background(), g, 4, condition.SyncThreshold(4), condition.ScanOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Satisfied {
					b.Fatal("core(13,4) should satisfy")
				}
			}
		})
	}
}

// BenchmarkMaxF measures the full tolerance search on K10 (answers f = 3).
func BenchmarkMaxF(b *testing.B) {
	g, err := topology.Complete(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		maxF, err := condition.MaxF(g)
		if err != nil {
			b.Fatal(err)
		}
		if maxF != 3 {
			b.Fatalf("MaxF = %d", maxF)
		}
	}
}

// BenchmarkDistribDispatch measures the distributed job protocol's
// scheduling floor: no-op jobs leased through a loopback coordinator to two
// in-process workers — grant, report, and ack per job, with nothing to
// compute. Real scans amortize this cost over whole fault-set ranges.
func BenchmarkDistribDispatch(b *testing.B) {
	coord := distrib.NewCoordinator(distrib.Options{})
	if err := coord.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			distrib.Work(ctx, coord.Addr(), distrib.WorkerOptions{})
		}()
	}
	defer func() {
		coord.Close()
		cancel()
		wg.Wait()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	if err := coord.DispatchNoop(context.Background(), int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
