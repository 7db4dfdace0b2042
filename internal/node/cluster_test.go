package node

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/async"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
	"iabc/internal/transport"
)

// clusterDefaults returns a Config with fast test timings over tr.
func clusterDefaults(tr transport.Transport) Config {
	return Config{
		Rule:        core.TrimmedMean{},
		Transport:   tr,
		ResendEvery: 2 * time.Millisecond,
	}
}

// updateOnly and mapOnly embed a rule / strategy as an interface field,
// hiding UpdateInto / WriteMessages, so the cluster serves them through
// core.Buffered / adversary.Writer.
type updateOnly struct{ core.UpdateRule }

type mapOnly struct{ adversary.Strategy }

// TestClusterConformsToAsyncFaultFree is the oracle test the tentpole hangs
// on: with f = 0 the quorum is the full in-neighborhood, which makes every
// update arrival-order independent — so a real concurrent cluster over a
// loss-free transport must finish bit-identical to the deterministic
// discrete-event engine, no matter how the scheduler interleaves it — with
// the rule as built and with its UpdateInto hidden.
func TestClusterConformsToAsyncFaultFree(t *testing.T) {
	g, err := topology.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	initial := []float64{3, 1, 4, 1.5, 9.2, 6}
	const maxRounds = 20

	want, err := async.Run(context.Background(), async.Config{
		G: g, Initial: initial, Rule: core.TrimmedMean{},
		Delays: async.Fixed{D: 1}, MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, rule := range []core.UpdateRule{core.TrimmedMean{}, updateOnly{core.TrimmedMean{}}} {
		tr := transport.NewInproc(g.N(), 256)
		defer tr.Close()
		cfg := clusterDefaults(tr)
		cfg.G, cfg.Initial, cfg.MaxRounds, cfg.Rule = g, initial, maxRounds, rule
		got, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		for i := 0; i < g.N(); i++ {
			if got.Rounds[i] != maxRounds {
				t.Errorf("%T: node %d stopped at round %d, want %d", rule, i, got.Rounds[i], maxRounds)
			}
			if math.Float64bits(got.Final[i]) != math.Float64bits(want.Final[i]) {
				t.Errorf("%T: node %d: cluster %v != async %v", rule, i, got.Final[i], want.Final[i])
			}
		}
		if got.Updates != int64(g.N()*maxRounds) {
			t.Errorf("%T: Updates = %d, want %d", rule, got.Updates, g.N()*maxRounds)
		}
	}
}

// TestClusterConformsToAsyncWithFixedAdversary extends the oracle to a
// state-independent adversary: Fixed sends the same value on every edge
// every round, so the cluster's wall-clock emission times cannot change
// what any receiver computes, and fault-free finals must still match the
// simulator bit for bit — with the strategy as built and with its
// WriteMessages hidden.
func TestClusterConformsToAsyncWithFixedAdversary(t *testing.T) {
	g, err := topology.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	initial := []float64{7, 3, 1, 4, 1.5, 9.2}
	faulty := nodeset.FromMembers(n, 0)
	adv := adversary.Fixed{Value: 42}
	const maxRounds = 12

	want, err := async.Run(context.Background(), async.Config{
		G: g, Initial: initial, Rule: core.TrimmedMean{},
		Faulty: faulty, Adversary: adv,
		Delays: async.Fixed{D: 1}, MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, strat := range []adversary.Strategy{adv, mapOnly{adv}} {
		tr := transport.NewInproc(n, 256)
		defer tr.Close()
		cfg := clusterDefaults(tr)
		cfg.G, cfg.Initial, cfg.MaxRounds = g, initial, maxRounds
		cfg.Faulty, cfg.Adversary = faulty, strat
		got, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}

		faulty.Complement().ForEach(func(i int) bool {
			if math.Float64bits(got.Final[i]) != math.Float64bits(want.Final[i]) {
				t.Errorf("%T: node %d: cluster %v != async %v", strat, i, got.Final[i], want.Final[i])
			}
			return true
		})
	}
}

// TestClusterConvergesUnderChaosWithFaults is the robustness headline: a
// 2f+1-satisfying graph with one Byzantine node must still ε-converge when
// the network drops a quarter of all messages, duplicates others, and
// reorders by jitter — losses are repaired by the receivers' asks, and
// validity is preserved throughout.
func TestClusterConvergesUnderChaosWithFaults(t *testing.T) {
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	initial := []float64{0, 10, 2.5, 7, 5, 1, 9}
	faulty := nodeset.FromMembers(n, 6)
	ch := transport.NewChaos(transport.NewInproc(n, 256), transport.ChaosConfig{
		Seed: 7, Drop: 0.25, Dup: 0.15, MaxDelay: 2 * time.Millisecond,
	})
	defer ch.Close()

	lo0, hi0 := math.Inf(1), math.Inf(-1)
	for i := 0; i < n-1; i++ {
		lo0, hi0 = math.Min(lo0, initial[i]), math.Max(hi0, initial[i])
	}

	cfg := clusterDefaults(ch)
	cfg.G, cfg.Initial, cfg.MaxRounds = g, initial, 80
	cfg.F, cfg.Faulty, cfg.Adversary = 1, faulty, adversary.Extremes{Amplitude: 3}
	cfg.Epsilon = 1e-6
	cfg.StallAfter = 3 * time.Second // safety net: never hang the suite
	cfg.OnUpdate = func(node, round int, value, rng float64) {
		if value < lo0-1e-9 || value > hi0+1e-9 {
			t.Errorf("node %d round %d: value %v outside initial hull [%v, %v]",
				node, round, value, lo0, hi0)
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no ε-convergence under chaos: stalled=%v finalRange=%v updates=%d resends=%d abandoned=%d",
			res.Stalled, res.FinalRange, res.Updates, res.Resends, res.Abandoned)
	}
	if res.FinalRange > cfg.Epsilon {
		t.Fatalf("FinalRange = %v > ε = %v", res.FinalRange, cfg.Epsilon)
	}
	if st := ch.Stats(); st.Dropped == 0 {
		t.Error("chaos dropped nothing — the run proved nothing")
	}
}

// reverseAsks counts the asks a cluster sends over a link its graph lacks:
// i asking j for the value of the edge j→i when G has no edge i→j.
type reverseAsks struct {
	transport.Transport
	g *graph.Graph
	n atomic.Int64
}

func (r *reverseAsks) Send(ctx context.Context, from, to int, m transport.Msg) error {
	if m.Ask && !r.g.HasEdge(from, to) {
		r.n.Add(1)
	}
	return r.Transport.Send(ctx, from, to, m)
}

// TestClusterConvergesOnDirectedCirculantUnderChaos runs the repair where
// asks must travel against edges: on the circulant C11{1,2,3,4} node i hears
// from i−1…i−4 and sends to i+1…i+4, so every ask crosses a link the graph
// lacks. With f = 1 (quorum 3 of in-degree 4) and one Byzantine node, the
// cluster must still ε-converge inside the initial hull under 20 % drop,
// 10 % duplication and 1 ms reordering, with asks seen on reverse links.
func TestClusterConvergesOnDirectedCirculantUnderChaos(t *testing.T) {
	g, err := topology.Circulant(11, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	faulty := nodeset.FromMembers(n, 0)
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		initial := make([]float64, n)
		for i := range initial {
			initial[i] = float64((int64(i)*7+seed)%11) / 2
		}
		lo0, hi0 := math.Inf(1), math.Inf(-1)
		for i := 1; i < n; i++ {
			lo0, hi0 = math.Min(lo0, initial[i]), math.Max(hi0, initial[i])
		}
		ch := transport.NewChaos(transport.NewInproc(n, 256), transport.ChaosConfig{
			Seed: seed, Drop: 0.2, Dup: 0.1, MaxDelay: time.Millisecond,
		})
		tr := &reverseAsks{Transport: ch, g: g}
		cfg := clusterDefaults(tr)
		cfg.G, cfg.Initial, cfg.MaxRounds = g, initial, 400
		cfg.F, cfg.Faulty, cfg.Adversary = 1, faulty, adversary.Extremes{Amplitude: 3}
		cfg.Epsilon = 1e-4
		cfg.StallAfter = 3 * time.Second
		cfg.OnUpdate = func(node, round int, value, rng float64) {
			if value < lo0-1e-9 || value > hi0+1e-9 {
				t.Errorf("seed %d: node %d round %d: value %v outside initial hull [%v, %v]", seed, node, round, value, lo0, hi0)
			}
		}
		res, err := Run(context.Background(), cfg)
		ch.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: no ε-convergence: stalled=%v finalRange=%v rounds=%v resends=%d",
				seed, res.Stalled, res.FinalRange, res.Rounds, res.Resends)
		}
		if tr.n.Load() == 0 {
			t.Errorf("seed %d: no ask crossed a reverse link — the run pinned nothing", seed)
		}
	}
}

// TestClusterPartitionValidityUnderStall pins the safety half of the
// guarantee when liveness is destroyed: a permanent partition starves every
// quorum, the StallAfter cutoff fires, and every estimate observed before
// and at the stall stays inside the initial fault-free hull — validity
// needs no liveness.
func TestClusterPartitionValidityUnderStall(t *testing.T) {
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	initial := []float64{0, 10, 4, 6, 2}
	ch := transport.NewChaos(transport.NewInproc(n, 256), transport.ChaosConfig{
		Partitions: []transport.Partition{{
			A:    nodeset.FromMembers(n, 0, 1),
			B:    nodeset.FromMembers(n, 2, 3, 4),
			From: 25 * time.Millisecond, // Until 0: never heals
		}},
	})
	defer ch.Close()

	cfg := clusterDefaults(ch)
	cfg.G, cfg.Initial, cfg.MaxRounds = g, initial, 200000
	cfg.F = 1 // quorum 3 of in-degree 4: satisfiable only across the cut
	cfg.StallAfter = 80 * time.Millisecond
	updates := 0
	cfg.OnUpdate = func(node, round int, value, rng float64) {
		updates++
		if value < 0-1e-9 || value > 10+1e-9 {
			t.Errorf("node %d round %d: value %v escaped initial hull [0, 10]", node, round, value)
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatalf("expected stall under permanent partition; converged=%v minRound=%d of %d",
			res.Converged, res.MinRound(nodeset.Universe(n)), cfg.MaxRounds)
	}
	if updates == 0 {
		// A starved scheduler can delay actor startup past the cut; the
		// stall and validity assertions above still hold, just vacuously.
		t.Logf("no updates before the cut (loaded machine?) — validity checked only trivially")
	}
	for i, v := range res.Final {
		if v < -1e-9 || v > 10+1e-9 {
			t.Errorf("final[%d] = %v outside initial hull", i, v)
		}
	}
}

// TestClusterCrashRestartRecovers crashes one node from the very start:
// with f = 0 everyone needs its round-0 value, so the whole cluster stalls
// (sends to and from the crashed node refused, each silent tick asking it
// again) until the crash window closes, the supervisor restarts the actor
// from durable state, and the run must then converge.
func TestClusterCrashRestartRecovers(t *testing.T) {
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	crash := transport.Crash{Node: 2, From: 0, Until: 30 * time.Millisecond}
	ch := transport.NewChaos(transport.NewInproc(n, 256), transport.ChaosConfig{
		Crashes: []transport.Crash{crash},
	})
	defer ch.Close()

	cfg := clusterDefaults(ch)
	cfg.G, cfg.Initial, cfg.MaxRounds = g, []float64{1, 2, 3, 4, 5}, 10
	cfg.Epsilon = 1e-12
	cfg.Crashes = []transport.Crash{crash}
	cfg.StallAfter = 3 * time.Second // safety net
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence after crash heal: stalled=%v finalRange=%v restarts=%d abandoned=%d",
			res.Stalled, res.FinalRange, res.Restarts, res.Abandoned)
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
	if res.Elapsed < crash.Until {
		t.Errorf("run finished in %v, before the crash window closed at %v", res.Elapsed, crash.Until)
	}
}

// TestClusterCrashedLaggardCatchesUp crashes one node of K6 (f = 1) for
// 5–60 ms while the other five run on to round 1 000, so on restart it lags
// by up to 1 000 rounds and must ask its peers for every one of them, oldest
// first, at one round trip per round. The transport queue is sized as the
// facade sizes it and the tick is the facade's 5 ms, and no seeded schedule
// may stall — with the chaos layer forwarding synchronously and after a
// delay alike.
func TestClusterCrashedLaggardCatchesUp(t *testing.T) {
	g, err := topology.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	const maxRounds = 1000
	crash := transport.Crash{Node: 2, From: 5 * time.Millisecond, Until: 60 * time.Millisecond}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, maxDelay := range []time.Duration{0, time.Millisecond} {
		for _, seed := range seeds {
			// The facade's queue size: DefaultQueueCap × (max in-degree + 1).
			ch := transport.NewChaos(transport.NewInproc(n, transport.DefaultQueueCap*n), transport.ChaosConfig{
				Seed: seed, MaxDelay: maxDelay, Crashes: []transport.Crash{crash},
			})
			cfg := clusterDefaults(ch)
			cfg.G, cfg.Initial, cfg.MaxRounds, cfg.F = g, []float64{7, 3, 1, 4, 1.5, 9.2}, maxRounds, 1
			cfg.ResendEvery = DefaultResendEvery
			cfg.Crashes = []transport.Crash{crash}
			cfg.StallAfter = 3 * time.Second
			res, err := Run(context.Background(), cfg)
			ch.Close()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("MaxDelay %v seed %d: %v, outDropped %d resends %d", maxDelay, seed, res.Elapsed, res.OutDropped, res.Resends)
			if res.Stalled {
				t.Errorf("MaxDelay %v seed %d: stalled after %v with rounds %v", maxDelay, seed, res.Elapsed, res.Rounds)
				continue
			}
			for i, r := range res.Rounds {
				if r != maxRounds {
					t.Errorf("MaxDelay %v seed %d: node %d stopped at round %d, want %d", maxDelay, seed, i, r, maxRounds)
				}
			}
		}
	}
}

// TestClusterCancelReleasesEverything cancels a run stalled by a permanent
// partition — its cross-cut sends and asks refused on every tick:
// Run must return promptly with the cancellation cause and leave zero
// goroutines behind.
func TestClusterCancelReleasesEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	ch := transport.NewChaos(transport.NewInproc(n, 16), transport.ChaosConfig{
		Partitions: []transport.Partition{{
			A:    nodeset.FromMembers(n, 0),
			B:    nodeset.FromMembers(n, 1, 2, 3, 4),
			From: 0,
		}},
	})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	cfg := clusterDefaults(ch)
	cfg.G, cfg.Initial, cfg.MaxRounds = g, []float64{1, 2, 3, 4, 5}, 100000
	cfg.F = 1
	_, err = Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d vs base %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterValidateErrors spot-checks configuration validation.
func TestClusterValidateErrors(t *testing.T) {
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInproc(4, 4)
	defer tr.Close()
	base := func() Config {
		c := clusterDefaults(tr)
		c.G, c.Initial, c.MaxRounds = g, []float64{1, 2, 3, 4}, 5
		return c
	}
	cases := map[string]func(*Config){
		"nil transport":  func(c *Config) { c.Transport = nil },
		"nil rule":       func(c *Config) { c.Rule = nil },
		"bad initial":    func(c *Config) { c.Initial = []float64{1} },
		"bad max rounds": func(c *Config) { c.MaxRounds = 0 },
		"negative f":     func(c *Config) { c.F = -1 },
		"faulty no adv":  func(c *Config) { c.Faulty = nodeset.FromMembers(4, 0) },
		"quorum too low": func(c *Config) { c.F = 2 }, // quorum 1 < 2f+1
		"bad crash node": func(c *Config) { c.Crashes = []transport.Crash{{Node: 9}} },
	}
	for name, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", name)
		}
	}
}

// TestClusterLocalSplitConformsToAsync runs one logical cluster as two
// concurrent Run calls over a shared transport, each animating half the
// nodes via Config.Local — the in-process model of a cross-process
// deployment. At f = 0 over loss-free delivery the combined finals must
// still be bit-identical to the discrete-event oracle, and each half must
// stop on its *local* MaxRounds completion. A small Linger keeps each
// half's actors answering asks after it finishes, exactly as `iabc serve`
// processes do so a finished process doesn't look crashed to laggards.
func TestClusterLocalSplitConformsToAsync(t *testing.T) {
	g, err := topology.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	initial := []float64{3, 1, 4, 1.5, 9.2, 6}
	const maxRounds = 20

	want, err := async.Run(context.Background(), async.Config{
		G: g, Initial: initial, Rule: core.TrimmedMean{},
		Delays: async.Fixed{D: 1}, MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr := transport.NewInproc(g.N(), 256)
	defer tr.Close()
	halves := [][]int{{0, 1, 2}, {3, 4, 5}}
	results := make([]*Result, len(halves))
	errs := make([]error, len(halves))
	var wg sync.WaitGroup
	for h, local := range halves {
		h, local := h, local
		cfg := clusterDefaults(tr)
		cfg.G, cfg.Initial, cfg.MaxRounds = g, initial, maxRounds
		cfg.Local, cfg.Linger = local, 20*time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[h], errs[h] = Run(context.Background(), cfg)
		}()
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("half %d: %v", h, err)
		}
	}
	for h, local := range halves {
		for _, i := range local {
			if results[h].Rounds[i] != maxRounds {
				t.Errorf("node %d stopped at round %d, want %d", i, results[h].Rounds[i], maxRounds)
			}
			if math.Float64bits(results[h].Final[i]) != math.Float64bits(want.Final[i]) {
				t.Errorf("node %d: split cluster %v != async %v", i, results[h].Final[i], want.Final[i])
			}
		}
		if got := results[h].Updates; got != int64(len(local)*maxRounds) {
			t.Errorf("half %d: Updates = %d, want %d (local nodes only)", h, got, len(local)*maxRounds)
		}
	}
}

// TestClusterGoroutinesPerNode pins the runtime's shape: a K8 cluster runs
// one actor per node, which sends straight into the transport, plus Run's
// waiter — at most n + 2 goroutines above the baseline mid-run, where a
// send pump per destination would add n more.
func TestClusterGoroutinesPerNode(t *testing.T) {
	g, err := topology.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	tr := transport.NewInproc(n, 256)
	defer tr.Close()
	cfg := clusterDefaults(tr)
	cfg.G, cfg.Initial, cfg.MaxRounds = g, []float64{3, 1, 4, 1, 5, 9, 2, 6}, 50
	base := runtime.NumGoroutine()
	peak := 0
	cfg.OnUpdate = func(node, round int, value, rng float64) {
		peak = max(peak, runtime.NumGoroutine()-base)
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if peak > n+2 {
		t.Fatalf("%d goroutines above baseline mid-run, want ≤ n+2 = %d", peak, n+2)
	}
	if peak < n {
		t.Fatalf("only %d goroutines above baseline mid-run: the probe missed the actors", peak)
	}
}

// stuckTransport blocks every Send to node stuck until the sender's ctx
// ends; every other link is the embedded transport's.
type stuckTransport struct {
	transport.Transport
	stuck int
}

func (s stuckTransport) Send(ctx context.Context, from, to int, m transport.Msg) error {
	if to == s.stuck {
		<-ctx.Done()
		return ctx.Err()
	}
	return s.Transport.Send(ctx, from, to, m)
}

// TestClusterStuckDestinationIsolated: a destination whose every Send hangs
// until the sender's ctx ends costs only the sends to it. On K7 with f = 1
// the other six nodes need just 5 of their 6 in-neighbours per round, so
// they all reach MaxRounds; every send to the stuck node fails at once into
// OutDropped, and since the stuck node never advances the run ends through
// the StallAfter cutoff.
func TestClusterStuckDestinationIsolated(t *testing.T) {
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	const stuck, maxRounds = 3, 100
	tr := transport.NewInproc(n, 256)
	defer tr.Close()
	cfg := clusterDefaults(stuckTransport{Transport: tr, stuck: stuck})
	cfg.G, cfg.Initial, cfg.MaxRounds = g, []float64{0, 1, 2, 3, 4, 5, 6}, maxRounds
	cfg.F = 1
	cfg.StallAfter = 500 * time.Millisecond
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatalf("run did not end through StallAfter: converged=%v rounds=%v", res.Converged, res.Rounds)
	}
	for i, r := range res.Rounds {
		if i != stuck && r != maxRounds {
			t.Errorf("node %d stopped at round %d, want %d: the stuck destination held it back", i, r, maxRounds)
		}
	}
	if res.OutDropped == 0 {
		t.Error("OutDropped = 0: no send to the stuck destination was dropped")
	}
}

// TestClusterOnUpdateSeesEveryCommit pins the commit path: every fault-free
// state change reaches OnUpdate exactly once, in order, with no two calls
// overlapping, and the Result agrees with what OnUpdate saw — its update
// count, each node's last (round, value), and whether some observed range
// reached ε. Runs on K7 with f = 1 under Hug, once stopping on ε and once
// on MaxRounds.
func TestClusterOnUpdateSeesEveryCommit(t *testing.T) {
	g, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	faulty := nodeset.FromMembers(n, 0)
	for _, tc := range []struct {
		maxRounds int
		eps       float64
	}{{200, 1e-3}, {5, 1e-12}} { // stops on ε; stops on MaxRounds
		tr := transport.NewInproc(n, 256)
		defer tr.Close()
		cfg := clusterDefaults(tr)
		cfg.G, cfg.Initial, cfg.MaxRounds, cfg.Epsilon = g, []float64{0, 1, 2, 3, 4, 5, 6}, tc.maxRounds, tc.eps
		cfg.F, cfg.Faulty, cfg.Adversary = 1, faulty, adversary.Hug{High: true}
		cfg.StallAfter = 3 * time.Second // safety net

		var inFlight atomic.Int32
		calls := int64(0)
		reached := false
		lastRound := make([]int, n)
		lastValue := append([]float64(nil), cfg.Initial...)
		cfg.OnUpdate = func(node, round int, value, rng float64) {
			if inFlight.Add(1) != 1 {
				t.Errorf("OnUpdate calls overlap at node %d round %d", node, round)
			}
			defer inFlight.Add(-1)
			calls++
			if round != lastRound[node]+1 {
				t.Errorf("node %d: OnUpdate saw round %d after round %d", node, round, lastRound[node])
			}
			lastRound[node], lastValue[node] = round, value
			reached = reached || rng <= tc.eps
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if calls != res.Updates {
			t.Errorf("maxRounds %d: %d OnUpdate calls, Result.Updates = %d", tc.maxRounds, calls, res.Updates)
		}
		faulty.Complement().ForEach(func(i int) bool {
			if lastRound[i] != res.Rounds[i] || math.Float64bits(lastValue[i]) != math.Float64bits(res.Final[i]) {
				t.Errorf("maxRounds %d: node %d: OnUpdate last saw (%d, %v), Result has (%d, %v)",
					tc.maxRounds, i, lastRound[i], lastValue[i], res.Rounds[i], res.Final[i])
			}
			return true
		})
		if res.Converged != reached {
			t.Errorf("maxRounds %d: Converged = %v, but an observed range ≤ ε: %v", tc.maxRounds, res.Converged, reached)
		}
		if res.Stalled {
			t.Errorf("maxRounds %d: stalled", tc.maxRounds)
		}
		if want := tc.eps > 1e-6; res.Converged != want {
			t.Errorf("maxRounds %d: Converged = %v, want %v: this case no longer tests its stop", tc.maxRounds, res.Converged, want)
		}
	}
}

// slowRule sleeps before every update, so a run's wall time is set by its
// rounds rather than by the scheduler.
type slowRule struct{ core.UpdateRule }

func (s slowRule) Update(own float64, received []core.ValueFrom, f int) (float64, error) {
	time.Sleep(time.Millisecond)
	return s.UpdateRule.Update(own, received, f)
}

// TestClusterStallCountsFromLastProgress: StallAfter is the silence since
// the last fault-free state change, not the time since the run started. A
// run whose every update takes about 1 ms lasts several StallAfter periods
// while never going StallAfter without progress, so it must end at
// MaxRounds, not in a stall.
func TestClusterStallCountsFromLastProgress(t *testing.T) {
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	const maxRounds, stallAfter = 350, 100 * time.Millisecond
	tr := transport.NewInproc(g.N(), 256)
	defer tr.Close()
	cfg := clusterDefaults(tr)
	cfg.G, cfg.Initial, cfg.MaxRounds = g, []float64{3, 1, 4, 1, 5}, maxRounds
	cfg.Rule = slowRule{core.TrimmedMean{}}
	cfg.StallAfter = stallAfter
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatalf("stalled after %v with rounds %v: StallAfter counted from the start", res.Elapsed, res.Rounds)
	}
	for i, r := range res.Rounds {
		if r != maxRounds {
			t.Errorf("node %d stopped at round %d, want %d", i, r, maxRounds)
		}
	}
	if res.Elapsed < 3*stallAfter {
		t.Errorf("run took %v, under 3×StallAfter = %v: the test shows nothing", res.Elapsed, 3*stallAfter)
	}
}
