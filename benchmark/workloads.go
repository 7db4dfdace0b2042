package main

// The eight workloads. Each is one user path through the public iabc facade;
// an op is one facade call on inputs generated from the seed. The sizes are
// fixed here and are the same on every commit: they were chosen so that an op
// lasts 30–130 ms on a 2-core host, which puts well over 100 timed ops into a
// 10 s run. README.md records why each workload exists and which layers it
// is expected to move.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"time"

	"iabc"
	"iabc/internal/condition"
	"iabc/internal/workload"
)

// Workload sizes.
const (
	sweepN, sweepF    = 16, 2
	planeRounds       = 4000
	replayRounds      = 1500
	replayBatch       = 64
	clusterN          = 8
	asyncRounds       = 5000
	inprocRounds      = 400
	tcpRounds         = 50
	chaosMaxRounds    = 2000
	chaosEpsilon      = 1e-6
	regularN, regF    = 16, 2
	distribN, distF   = 19, 6
	convergedFraction = 1e-9 // loss-free cluster runs must shrink the range this far
)

// env is what a workload's set-up may depend on: the seed, the processor
// count every "all cores" option uses, and a directory for files.
type env struct {
	seed  int64
	procs int
	dir   string
}

// rng returns the generator for one named input, so inputs do not shift when
// another workload draws more numbers.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000003 + stream))
}

// opResult is what one op reports to the measuring loop. A non-nil err means
// the op returned an error or its output failed the correctness check; it
// then contributes no work.
type opResult struct {
	work float64
	err  error
	// Set by the workloads that have them, for the per-layer pass.
	cluster    *iabc.ClusterResult
	minRound   int
	check      iabc.CheckResult
	deliveries int
}

// instance is a workload after set-up: inputs built, oracle computed.
type instance struct {
	// op runs op number i. With s == nil it is the plain user call; with
	// seams it is the same call with the benchmark's wrappers passed through
	// the facade's own options. workers overrides the worker count of the
	// sweep and check workloads when > 0.
	op func(ctx context.Context, i int, s *seams, workers int) opResult
	// corrupt damages the oracle so that every later op fails its check.
	corrupt func()
	// inputs is a printable form of what the seed generated.
	inputs string
	// buildGraphs reruns the constructors of the set-up, for graph.build_ms.
	buildGraphs func() ([]*iabc.Graph, error)
	// shape describes the inputs to the direct drives of the per-layer pass.
	shape shape
}

// shape tells the direct drives what the workload's inputs look like.
type shape struct {
	// usesRule is set where ops run the update rule.
	usesRule bool
	// workers is the parallelism of an op: how many cores its layers share.
	workers int
	// scanG and scanF are the checker input, nil and 0 for the others.
	scanG *iabc.Graph
	scanF int
}

type workloadDef struct {
	name  string
	unit  string
	why   string
	setup func(e *env) (*instance, error)
}

var workloads = []workloadDef{
	{"sweep_plane", "scenario-rounds",
		"iabc sweep on the Sequential engine: core rule updates and the sim edge plane do nearly all the work",
		setupSweepPlane},
	{"sweep_replay", "vector-rounds",
		"Matrix engine with a 64-vector batch: CSR replay kernels dominate, rule and adversary run once per 65 vectors",
		setupSweepReplay},
	{"async_run", "delivered-events",
		"Async simulator on K8: calendar queue, quorum ring and rule in one thread, the baseline the cluster workloads divide by",
		setupAsyncRun},
	{"check_regular", "fault-sets",
		"exact Theorem 1 check of a relabelled chord(16,2): vertex-transitive, degree pruning is blind, enumeration is everything",
		setupCheckRegular},
	{"distrib_scan", "fault-sets",
		"same checker on prune-bound core(19,6) behind a lease pool of in-process workers and a state backend: framing and journal dominate",
		setupDistribScan},
	{"cluster_inproc", "cluster-rounds",
		"live actor cluster K8 over the in-process transport, loss-free, zero injected delay: processor and scheduler time only",
		setupClusterInproc},
	{"cluster_tcp", "cluster-rounds",
		"identical cluster over loopback TCP with a fresh listener per op: whatever moves here but not on cluster_inproc is the wire",
		setupClusterTCP},
	{"cluster_chaos", "cluster-rounds",
		"identical cluster under 10% drop, 5% dup and 200us delay, run to epsilon: resends and backoff set the time",
		setupClusterChaos},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// —— shared helpers ——

// hull is the fault-free range of an initial vector.
type hull struct{ lo, hi float64 }

func hullOf(v []float64, faultFree iabc.Set) hull {
	h := hull{math.Inf(1), math.Inf(-1)}
	faultFree.ForEach(func(i int) bool {
		h.lo = math.Min(h.lo, v[i])
		h.hi = math.Max(h.hi, v[i])
		return true
	})
	return h
}

// holds reports whether every fault-free entry of v lies inside the hull —
// the paper's validity condition on final states.
func (h hull) holds(v []float64, faultFree iabc.Set, slack float64) error {
	var err error
	faultFree.ForEach(func(i int) bool {
		if !(v[i] >= h.lo-slack && v[i] <= h.hi+slack) {
			err = fmt.Errorf("node %d final %g outside the fault-free hull [%g, %g]", i, v[i], h.lo, h.hi)
			return false
		}
		return true
	})
	return err
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// initialVector draws n values from the seed and lays them over the nodes in
// a rank order that is the same for every seed. The cost of trimming depends
// on how the values a node receives are ordered by sender (the selection
// ends in an insertion sort), so with a free order sweep_plane's op time
// differed by 14 % from seed to seed; the seed varies the values, not the
// shape.
func initialVector(n int, rng *rand.Rand) []float64 {
	vals := workload.Uniform(n, 0, 100, rng)
	sort.Float64s(vals)
	out := make([]float64, n)
	for i, rank := range rand.New(rand.NewSource(0)).Perm(n) {
		out[i] = vals[rank]
	}
	return out
}

// relabel returns g with node ids permuted by a seeded random permutation.
func relabel(g *iabc.Graph, rng *rand.Rand) (*iabc.Graph, error) {
	perm := rng.Perm(g.N())
	b := iabc.NewBuilder(g.N())
	g.ForEachEdge(func(from, to int) { b.AddEdge(perm[from], perm[to]) })
	return b.Build()
}

// benchScenarios are the 8 built-in adversary scenarios of `iabc bench`. The
// strategies are built fresh per call: *Insider carries scratch state.
func benchScenarios() []iabc.Scenario {
	advs := []iabc.Strategy{
		iabc.Hug{High: true}, iabc.Hug{},
		iabc.Extremes{Amplitude: 50},
		iabc.Fixed{Value: 1e6}, iabc.Fixed{Value: -1e6},
		&iabc.Insider{High: true}, &iabc.Insider{},
		iabc.Conforming{},
	}
	scens := make([]iabc.Scenario, len(advs))
	for i, a := range advs {
		scens[i] = iabc.Scenario{Adversary: a}
	}
	return scens
}

// —— sweeps ——

// sweepFaulty are the faulty nodes of the sweep workloads: two of the core.
var sweepFaulty = []int{0, 1}

type sweepInst struct {
	g       *iabc.Graph
	initial []float64
	oracle  [][]float64 // per scenario: Sequential Simulate finals
	hull    hull
	rounds  int
	replay  bool
	seed    int64
	procs   int
}

func setupSweep(e *env, rounds int, replay bool, stream int64) (*instance, error) {
	g, err := iabc.CoreNetwork(sweepN, sweepF)
	if err != nil {
		return nil, err
	}
	w := &sweepInst{
		g:       g,
		initial: initialVector(sweepN, e.rng(stream)),
		rounds:  rounds,
		replay:  replay,
		seed:    e.seed,
		procs:   e.procs,
	}
	faultFree := iabc.SetOf(sweepN, sweepFaulty...).Complement()
	w.hull = hullOf(w.initial, faultFree)
	// The oracle is an independent path: one Sequential Simulate per
	// scenario. All synchronous engines promise bit-identical traces.
	for _, sc := range benchScenarios() {
		out, err := iabc.Simulate(context.Background(), g,
			iabc.WithF(sweepF), iabc.WithFaulty(sweepFaulty...), iabc.WithInitial(w.initial),
			iabc.WithAdversary(sc.Adversary), iabc.WithMaxRounds(rounds))
		if err != nil {
			return nil, fmt.Errorf("sweep oracle: %w", err)
		}
		w.oracle = append(w.oracle, out.Final)
	}
	return &instance{
		op:      w.op,
		corrupt: func() { w.oracle[0][len(w.oracle[0])-1] += 1 },
		inputs:  fmt.Sprint(w.initial),
		buildGraphs: func() ([]*iabc.Graph, error) {
			g, err := iabc.CoreNetwork(sweepN, sweepF)
			return []*iabc.Graph{g}, err
		},
		shape: shape{usesRule: true, workers: e.procs},
	}, nil
}

func setupSweepPlane(e *env) (*instance, error)  { return setupSweep(e, planeRounds, false, 1) }
func setupSweepReplay(e *env) (*instance, error) { return setupSweep(e, replayRounds, true, 2) }

func (w *sweepInst) op(ctx context.Context, _ int, s *seams, workers int) opResult {
	scens := benchScenarios()
	if workers <= 0 {
		workers = w.procs
	}
	// The Matrix engine type-switches on the concrete rule, so the replay
	// workload is traced with the adversary seam only; its capture op runs
	// the same rounds on the Sequential engine, where the rule seam fits.
	replay := w.replay && (s == nil || s.capture == nil)
	opts := []iabc.Option{
		iabc.WithF(sweepF), iabc.WithFaulty(sweepFaulty...), iabc.WithInitial(w.initial),
		iabc.WithMaxRounds(w.rounds), iabc.WithWorkers(workers),
	}
	if replay {
		opts = append(opts, iabc.WithEngine(iabc.Matrix), iabc.WithBatch(replayBatch), iabc.WithSeed(w.seed))
	}
	if s != nil {
		for i := range scens {
			scens[i].Adversary = s.adversary(scens[i].Adversary)
		}
		if !replay {
			opts = append(opts, iabc.WithRule(s.rule(iabc.TrimmedMean{})))
		}
	}
	res, err := iabc.Sweep(ctx, w.g, scens, opts...)
	if err != nil {
		return opResult{err: err}
	}
	if len(res.Traces) != len(scens) {
		return opResult{err: fmt.Errorf("sweep returned %d traces for %d scenarios", len(res.Traces), len(scens))}
	}
	for i, tr := range res.Traces {
		if r, bad := tr.ValidityViolation(1e-9); bad {
			return opResult{err: fmt.Errorf("scenario %d: validity violated at round %d", i, r)}
		}
		if tr.Rounds != w.rounds || !bitEqual(tr.Final, w.oracle[i]) {
			return opResult{err: fmt.Errorf("scenario %d: finals differ from the Sequential Simulate oracle", i)}
		}
	}
	vectors := 1
	if replay {
		// WithBatch perturbs every entry by at most 0.5, so each extra
		// vector's fault-free hull lies within the base hull widened by 0.5.
		if len(res.Finals) != len(scens) {
			return opResult{err: fmt.Errorf("sweep returned %d final sets for %d scenarios", len(res.Finals), len(scens))}
		}
		faultFree := res.Traces[0].FaultFree
		for i, finals := range res.Finals {
			if len(finals) != replayBatch {
				return opResult{err: fmt.Errorf("scenario %d: %d replayed vectors, want %d", i, len(finals), replayBatch)}
			}
			for _, v := range finals {
				if err := w.hull.holds(v, faultFree, 0.5+1e-9); err != nil {
					return opResult{err: fmt.Errorf("scenario %d replay: %w", i, err)}
				}
			}
		}
		vectors += replayBatch
	}
	return opResult{work: float64(len(scens) * w.rounds * vectors)}
}

// —— async simulator ——

type asyncInst struct {
	g         *iabc.Graph
	initial   []float64
	faultFree iabc.Set
	hull      hull
	seed      int64
}

func setupAsyncRun(e *env) (*instance, error) {
	g, err := iabc.Complete(clusterN)
	if err != nil {
		return nil, err
	}
	w := &asyncInst{g: g, initial: initialVector(clusterN, e.rng(3)), seed: e.seed}
	w.faultFree = iabc.SetOf(clusterN, 0).Complement()
	w.hull = hullOf(w.initial, w.faultFree)
	return &instance{
		op:          w.op,
		corrupt:     func() { w.hull = hull{1, 0} },
		inputs:      fmt.Sprint(w.initial),
		buildGraphs: func() ([]*iabc.Graph, error) { g, err := iabc.Complete(clusterN); return []*iabc.Graph{g}, err },
		shape:       shape{usesRule: true, workers: 1},
	}, nil
}

func (w *asyncInst) op(ctx context.Context, i int, s *seams, _ int) opResult {
	var delays iabc.DelayPolicy = iabc.JitterDelay{B: 2, Seed: w.seed + int64(i)}
	var adv iabc.Strategy = iabc.Hug{High: true}
	opts := []iabc.Option{
		iabc.WithEngine(iabc.Async), iabc.WithF(1), iabc.WithFaulty(0), iabc.WithInitial(w.initial),
		iabc.WithMaxRounds(asyncRounds),
	}
	if s != nil {
		delays, adv = s.delays(delays), s.adversary(adv)
		opts = append(opts, iabc.WithRule(s.rule(iabc.TrimmedMean{})))
	}
	out, err := iabc.Simulate(ctx, w.g, append(opts, iabc.WithDelays(delays), iabc.WithAdversary(adv))...)
	if err != nil {
		return opResult{err: err}
	}
	if out.Rounds != asyncRounds {
		return opResult{err: fmt.Errorf("async run stopped at round %d, want %d", out.Rounds, asyncRounds)}
	}
	if err := w.hull.holds(out.Final, w.faultFree, 0); err != nil {
		return opResult{err: err}
	}
	// The work unit is fixed by the input: every fault-free node must be
	// delivered its in-neighbours' values for every round it completes.
	return opResult{
		work:       float64(asyncRounds * (clusterN - 1) * (clusterN - 1)),
		deliveries: out.AsyncTrace.Deliveries,
	}
}

// —— exact checker ——

type checkInst struct {
	g      *iabc.Graph
	f      int
	oracle iabc.CheckResult
	procs  int
	pooled bool
}

func setupCheck(e *env, base func() (*iabc.Graph, error), f int, pooled bool, stream int64) (*instance, error) {
	build := func() ([]*iabc.Graph, error) {
		g, err := base()
		if err != nil {
			return nil, err
		}
		g, err = relabel(g, e.rng(stream))
		return []*iabc.Graph{g}, err
	}
	gs, err := build()
	if err != nil {
		return nil, err
	}
	w := &checkInst{g: gs[0], f: f, procs: e.procs, pooled: pooled}
	if pooled {
		// distrib_scan's oracle is the in-process facade call.
		w.oracle, err = iabc.Check(context.Background(), w.g, f)
	} else {
		// check_regular's oracle bypasses the facade and the scan fan-out.
		w.oracle, err = condition.CheckThreshold(w.g, f, iabc.SyncThreshold(f))
	}
	if err != nil {
		return nil, fmt.Errorf("check oracle: %w", err)
	}
	return &instance{
		op:          w.op,
		corrupt:     func() { w.oracle.CandidatesExamined++ },
		inputs:      w.g.Encode(),
		buildGraphs: build,
		shape:       shape{workers: e.procs, scanG: w.g, scanF: f},
	}, nil
}

func setupCheckRegular(e *env) (*instance, error) {
	return setupCheck(e, func() (*iabc.Graph, error) { return iabc.Chord(regularN, regF) }, regF, false, 4)
}

func setupDistribScan(e *env) (*instance, error) {
	return setupCheck(e, func() (*iabc.Graph, error) { return iabc.CoreNetwork(distribN, distF) }, distF, true, 5)
}

func (w *checkInst) op(ctx context.Context, _ int, s *seams, workers int) opResult {
	if workers <= 0 {
		workers = w.procs
	}
	if w.pooled {
		// A fresh in-memory backend per op: the journal is written through the
		// whole statestore interface, but not to the checkout's disk, whose
		// latency on a shared host swings by a factor of ten for seconds at a
		// time and would drown every other layer (README, "Cliffs").
		mem := iabc.NewMemBackend()
		var backend iabc.StateBackend = mem
		if s != nil {
			backend = s.backend(mem)
		}
		res, err := iabc.Check(ctx, w.g, w.f, iabc.WithWorkerPool(workers), iabc.WithBackend(backend))
		if err != nil {
			return opResult{err: err}
		}
		if err := w.verify(res); err != nil {
			return opResult{err: err}
		}
		if keys, err := mem.List(ctx, ""); err != nil || len(keys) == 0 {
			return opResult{err: fmt.Errorf("the state backend is empty after the scan (%v)", err)}
		}
		return opResult{work: float64(condition.NumFaultSets(w.g.N(), w.f)), check: res}
	}
	res, err := iabc.Check(ctx, w.g, w.f, iabc.WithWorkers(workers))
	if err != nil {
		return opResult{err: err}
	}
	if err := w.verify(res); err != nil {
		return opResult{err: err}
	}
	return opResult{work: float64(condition.NumFaultSets(w.g.N(), w.f)), check: res}
}

// verify compares the verdict and every counter with the oracle's.
func (w *checkInst) verify(res iabc.CheckResult) error {
	o := w.oracle
	if res.Satisfied != o.Satisfied || (res.Witness == nil) != (o.Witness == nil) ||
		res.FaultSetsExamined != o.FaultSetsExamined || res.CandidatesExamined != o.CandidatesExamined ||
		res.CandidatesPruned != o.CandidatesPruned || res.MemoHits != o.MemoHits ||
		res.FaultSetsResumed != o.FaultSetsResumed || res.CacheHit != o.CacheHit {
		return fmt.Errorf("check result %+v differs from the oracle %+v", res, o)
	}
	return nil
}

// —— live cluster ——

type clusterKind int

const (
	overInproc clusterKind = iota
	overTCP
	overChaos
)

type clusterInst struct {
	kind      clusterKind
	g         *iabc.Graph
	initial   []float64
	faultFree iabc.Set
	hull      hull
	seed      int64
	rounds    int
}

func setupCluster(e *env, kind clusterKind, rounds int, stream int64) (*instance, error) {
	g, err := iabc.Complete(clusterN)
	if err != nil {
		return nil, err
	}
	w := &clusterInst{kind: kind, g: g, initial: initialVector(clusterN, e.rng(stream)), seed: e.seed, rounds: rounds}
	w.faultFree = iabc.SetOf(clusterN, 0).Complement()
	w.hull = hullOf(w.initial, w.faultFree)
	return &instance{
		op:          w.op,
		corrupt:     func() { w.hull = hull{1, 0} },
		inputs:      fmt.Sprint(w.initial),
		buildGraphs: func() ([]*iabc.Graph, error) { g, err := iabc.Complete(clusterN); return []*iabc.Graph{g}, err },
		shape:       shape{usesRule: true, workers: e.procs},
	}, nil
}

func setupClusterInproc(e *env) (*instance, error) {
	return setupCluster(e, overInproc, inprocRounds, 6)
}
func setupClusterTCP(e *env) (*instance, error) { return setupCluster(e, overTCP, tcpRounds, 7) }
func setupClusterChaos(e *env) (*instance, error) {
	return setupCluster(e, overChaos, chaosMaxRounds, 8)
}

// tcpConfig binds a fresh loopback listener and maps every node to it.
func tcpConfig(n int) (iabc.TCPTransportConfig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return iabc.TCPTransportConfig{}, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = ln.Addr().String()
	}
	return iabc.TCPTransportConfig{Addrs: addrs, Listener: ln}, nil
}

func (w *clusterInst) chaosConfig(i int) iabc.ChaosConfig {
	return iabc.ChaosConfig{Seed: w.seed + int64(i), Drop: 0.1, Dup: 0.05, MaxDelay: 200 * time.Microsecond}
}

func (w *clusterInst) op(ctx context.Context, i int, s *seams, _ int) opResult {
	var adv iabc.Strategy = iabc.Hug{High: true}
	opts := []iabc.Option{
		iabc.WithF(1), iabc.WithFaulty(0), iabc.WithInitial(w.initial), iabc.WithMaxRounds(w.rounds),
	}
	if w.kind == overChaos {
		opts = append(opts, iabc.WithEpsilon(chaosEpsilon))
	}
	if s == nil {
		switch w.kind {
		case overTCP:
			cfg, err := tcpConfig(clusterN)
			if err != nil {
				return opResult{err: err}
			}
			opts = append(opts, iabc.WithTCPTransport(cfg))
		case overChaos:
			opts = append(opts, iabc.WithChaos(w.chaosConfig(i)))
		}
	} else {
		// Traced: the benchmark builds the same transport stack itself and
		// hands it over wrapped, which is what WithTransport is for.
		tr, err := s.buildTransport(w, i)
		if err != nil {
			return opResult{err: err}
		}
		defer tr.Close()
		adv = s.adversary(adv)
		opts = append(opts, iabc.WithTransport(tr), iabc.WithRule(s.rule(iabc.TrimmedMean{})),
			iabc.WithObserver(s.observer(w.faultFree)))
	}
	res, err := iabc.Cluster(ctx, w.g, append(opts, iabc.WithAdversary(adv))...)
	if err != nil {
		return opResult{err: err}
	}
	if err := w.hull.holds(res.Final, w.faultFree, 0); err != nil {
		return opResult{err: err}
	}
	minRound := res.MinRound(w.faultFree)
	if w.kind == overChaos {
		if !res.Converged {
			return opResult{err: fmt.Errorf("chaos run did not converge (stalled=%v, min round %d)", res.Stalled, minRound)}
		}
	} else {
		if res.Stalled || minRound != w.rounds {
			return opResult{err: fmt.Errorf("cluster stopped at round %d of %d (stalled=%v)", minRound, w.rounds, res.Stalled)}
		}
		if !(res.FinalRange <= convergedFraction*res.InitialRange) {
			return opResult{err: fmt.Errorf("final range %g after %d rounds, initial %g", res.FinalRange, w.rounds, res.InitialRange)}
		}
	}
	if minRound < 1 {
		return opResult{err: fmt.Errorf("cluster finished without completing a round")}
	}
	return opResult{work: float64(minRound), cluster: res, minRound: minRound}
}
