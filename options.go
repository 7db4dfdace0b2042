package iabc

import (
	"fmt"
	"math/rand"
	"time"

	"iabc/internal/core"
	"iabc/internal/sim"
	"iabc/internal/statestore"
	"iabc/internal/transport"
)

// Engine selects the execution engine behind Simulate and Sweep. The two
// synchronous engines share one semantics and produce bit-identical traces;
// Async is the Section 7 quorum-iteration model under message delays (see
// the package documentation's engine guide).
type Engine int

const (
	// Sequential is the default: the single-goroutine reference engine on a
	// flat message plane, allocation-free in steady state.
	Sequential Engine = iota
	// Matrix materializes each round as a row-stochastic transition and can
	// replay recorded rounds over extra initial vectors (WithExtras /
	// WithBatch). Affine rules only (TrimmedMean, Mean).
	Matrix
	// Async is the Section 7 asynchronous quorum iteration driven by a
	// DelayPolicy (WithDelays). Simulate only — sweeps are synchronous.
	Async
)

// String returns the engine's name as used in traces and CSV output.
func (e Engine) String() string {
	switch e {
	case Sequential:
		return "sequential"
	case Matrix:
		return "matrix"
	case Async:
		return "async"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// simEngine maps the selector to the internal engine implementation.
func (e Engine) simEngine() (sim.Engine, error) {
	switch e {
	case Sequential:
		return sim.Sequential{}, nil
	case Matrix:
		return sim.Matrix{}, nil
	case Async:
		return nil, fmt.Errorf("iabc: the async engine runs through Simulate only")
	}
	return nil, fmt.Errorf("iabc: unknown engine %d", int(e))
}

// DefaultMaxRounds is the iteration cap applied when WithMaxRounds is not
// given.
const DefaultMaxRounds = 10000

// config collects the options; the zero value plus defaults (see
// newConfig) is a valid fault-free configuration.
type config struct {
	f             int
	faulty        Set
	faultyRaw     []int
	hasFaulty     bool
	initial       []float64
	rule          UpdateRule
	adversary     Strategy
	adversaryName string
	hasAdvName    bool
	seed          int64
	maxRounds     int
	epsilon       float64
	recordStates  bool
	engine        Engine
	hasEngine     bool
	workers       int
	hasWorkers    bool
	extras        [][]float64
	batch         int
	observer      Observer
	delays        DelayPolicy
	async         bool
	transport     transport.Transport
	tcp           *transport.TCPConfig
	localNodes    []int
	linger        time.Duration
	chaos         transport.ChaosConfig
	hasChaos      bool
	resendEvery   time.Duration
	stallAfter    time.Duration
	stateDir      string
	backend       statestore.Backend
	coordAddr     string
	workerPool    int
	err           error // first option-level error, surfaced by the entry points
}

// Option configures one aspect of a Simulate, Sweep, Check, or MaxF call.
// Options not consulted by an entry point are ignored (WithDelays by a
// synchronous Simulate, WithEpsilon by Check, …), so one option list can
// drive a whole pipeline.
type Option func(*config)

// newConfig applies opts over the defaults: fault-free, TrimmedMean rule,
// Sequential engine, DefaultMaxRounds iterations, seed 1, one worker.
func newConfig(opts []Option) (*config, error) {
	c := &config{rule: core.TrimmedMean{}, seed: 1, maxRounds: DefaultMaxRounds, workers: 1}
	for _, opt := range opts {
		opt(c)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.hasAdvName {
		strat, err := AdversaryByName(c.adversaryName, c.seed)
		if err != nil {
			return nil, err
		}
		c.adversary = strat
	}
	if c.batch > 0 && len(c.extras) > 0 {
		return nil, fmt.Errorf("iabc: WithBatch and WithExtras configure the same replay dimension; use one")
	}
	return c, nil
}

// fail records the first option-level error.
func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithF sets the fault-tolerance parameter f (how many faults the update
// rule trims against, and the bound on Check's fault sets). Default 0.
func WithF(f int) Option { return func(c *config) { c.f = f } }

// WithFaulty marks the listed node IDs as actually faulty. It replaces any
// earlier WithFaulty/WithFaultySet; the ids are bounds-checked against the
// graph when the entry point runs.
func WithFaulty(ids ...int) Option {
	return func(c *config) {
		c.faulty = Set{}
		c.hasFaulty = true
		for _, id := range ids {
			if id < 0 {
				c.fail(fmt.Errorf("iabc: negative faulty node id %d", id))
				return
			}
		}
		c.faultyRaw = append([]int(nil), ids...)
	}
}

// WithFaultySet marks the given set as the actual fault set; its capacity
// must match the graph's node count.
func WithFaultySet(s Set) Option {
	return func(c *config) {
		c.faulty = s
		c.hasFaulty = true
		c.faultyRaw = nil
	}
}

// WithInitial sets the initial state vector v[0] (length must equal the
// graph's node count). Required by Simulate and Sweep.
func WithInitial(v []float64) Option { return func(c *config) { c.initial = v } }

// WithRule sets the update rule Z_i shared by all nodes. Default
// TrimmedMean.
func WithRule(r UpdateRule) Option { return func(c *config) { c.rule = r } }

// WithAdversary sets the Byzantine strategy driving faulty transmissions.
func WithAdversary(s Strategy) Option {
	return func(c *config) { c.adversary = s; c.hasAdvName = false }
}

// WithNamedAdversary selects a built-in strategy by its CLI name (see
// AdversaryNames); randomized strategies are seeded from WithSeed. The name
// is resolved when the entry point runs, so WithSeed may appear later in
// the option list.
func WithNamedAdversary(name string) Option {
	return func(c *config) { c.adversaryName = name; c.hasAdvName = true; c.adversary = nil }
}

// WithSeed seeds the randomized pieces: named randomized adversaries and
// the WithBatch perturbations. Default 1.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithMaxRounds caps the number of iterations (per scenario in a sweep;
// per node in the async model). Default DefaultMaxRounds. The value is
// passed through to the engine's validation, so a non-positive cap fails
// there with the engine's own error.
func WithMaxRounds(rounds int) Option {
	return func(c *config) { c.maxRounds = rounds }
}

// WithEpsilon stops a run once the fault-free range U−µ is ≤ eps. Default
// 0: run all rounds.
func WithEpsilon(eps float64) Option { return func(c *config) { c.epsilon = eps } }

// WithRecordStates retains the full per-round state matrix in the trace
// (synchronous engines only; memory (MaxRounds+1) × n floats).
func WithRecordStates() Option { return func(c *config) { c.recordStates = true } }

// WithEngine selects the execution engine. Default Sequential; WithExtras
// or WithBatch auto-select Matrix when no engine is given.
func WithEngine(e Engine) Option {
	return func(c *config) { c.engine = e; c.hasEngine = true }
}

// WithWorkers fans independent units of work — sweep scenarios, checker
// fault sets — across n goroutines. 0 selects GOMAXPROCS; the default is 1
// (fully sequential and safe for scenarios sharing mutable adversary
// state). Results are bit-identical at any worker count.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = -1 // internal convention: ≤ 0 selects GOMAXPROCS
		}
		c.workers = n
		c.hasWorkers = true
	}
}

// WithExtras replays each sweep scenario's recorded round programs over
// these extra initial vectors (Matrix engine; every vector must have
// length n). SweepResult.Finals holds the per-vector final states.
func WithExtras(extras [][]float64) Option {
	return func(c *config) { c.extras = extras }
}

// WithBatch is WithExtras with k synthesized vectors: the base initial
// vector plus i.i.d. uniform noise in [-0.5, 0.5), deterministically seeded
// from WithSeed — the one-line form of a what-if sensitivity grid.
func WithBatch(k int) Option {
	return func(c *config) {
		if k < 0 {
			c.fail(fmt.Errorf("iabc: negative batch size %d", k))
			return
		}
		c.batch = k
	}
}

// WithObserver streams progress events to fn while a call runs: per-round
// ranges from Simulate, per-scenario completions from Sweep, and checker
// progress from Check and MaxF. Events may originate from worker
// goroutines, but fn is never invoked concurrently — the facade serializes
// delivery. See Event for the payloads.
func WithObserver(fn Observer) Option { return func(c *config) { c.observer = fn } }

// WithDelays sets the async engine's per-message delay policy. Required by
// Simulate with WithEngine(Async).
func WithDelays(p DelayPolicy) Option { return func(c *config) { c.delays = p } }

// WithAsyncCondition makes Check decide the Section 7 asynchronous
// condition (in-link threshold 2f+1) instead of the synchronous f+1.
func WithAsyncCondition() Option { return func(c *config) { c.async = true } }

// WithTransport makes Cluster run over t instead of a run-owned in-process
// transport. The caller keeps ownership: Cluster leaves t open, so a chaos
// wrapper built with NewChaosTransport can be inspected (ChaosStats) after
// the run. Mutually exclusive with WithChaos — wrap explicitly when you
// need both a custom transport and fault injection.
func WithTransport(t Transport) Option {
	return func(c *config) {
		if t == nil {
			c.fail(fmt.Errorf("iabc: WithTransport(nil)"))
			return
		}
		c.transport = t
	}
}

// WithChaos makes Cluster inject seeded network faults: the run-owned
// transport (in-process by default, wire under WithTCPTransport) is wrapped
// in a chaos layer configured by cfg, and cfg.Crashes additionally drive
// the actor crash/restart supervisor. Mutually exclusive with
// WithTransport.
func WithChaos(cfg ChaosConfig) Option {
	return func(c *config) { c.chaos = cfg; c.hasChaos = true }
}

// WithTCPTransport makes Cluster run over a run-owned wire transport:
// cfg.Addrs maps every node id to its host:port (length must equal the
// graph's node count), and the instance hosts the WithLocalNodes subset
// (all nodes when cfg.Local and WithLocalNodes are both empty — a
// single-process cluster over real sockets). The transport is closed when
// the run returns. Composes with WithChaos (the chaos layer wraps the wire
// transport); mutually exclusive with WithTransport — build the transport
// yourself with NewTCPTransport when you need to keep it open.
func WithTCPTransport(cfg TCPTransportConfig) Option {
	return func(c *config) { cc := cfg; c.tcp = &cc }
}

// WithLocalNodes restricts the actors a Cluster call animates to the listed
// node ids — this process's share of a cross-process deployment. The stop
// conditions become local (see the node runtime's Config.Local); combine
// with WithLinger so a finished process keeps answering remote laggards'
// asks from its history. Default: all nodes.
func WithLocalNodes(ids ...int) Option {
	return func(c *config) { c.localNodes = append([]int(nil), ids...) }
}

// WithLinger keeps a Cluster call's actors alive for d after its local stop
// condition fires, still draining deliveries and answering asks from their
// history. Without it a finished process's exit looks like a crash to
// remote peers that still need its history. Default 0: return immediately.
func WithLinger(d time.Duration) Option { return func(c *config) { c.linger = d } }

// WithResendEvery sets a cluster actor's tick interval: on a tick after
// which it made no progress, an actor asks each in-neighbour it still lacks
// a current-round value from for exactly that value. 0 — the default —
// selects the node runtime's default.
func WithResendEvery(d time.Duration) Option { return func(c *config) { c.resendEvery = d } }

// WithStallAfter ends a cluster run with ClusterResult.Stalled once no
// fault-free state change has been observed for d — the liveness cutoff for
// runs under liveness-destroying partitions. 0 (the default) disables it;
// set it whenever the chaos schedule may suspend liveness past MaxRounds'
// reach.
func WithStallAfter(d time.Duration) Option { return func(c *config) { c.stallAfter = d } }

// WithStateDir makes Check and MaxF checkpoint scan progress and cache
// verdicts under dir (created if absent), so an interrupted run restarted
// with the same directory skips completed work and a repeated run over the
// same graph returns its memoized verdict. The directory is a plain
// filesystem layout — safe to inspect, copy, or delete between runs.
// Mutually exclusive with WithBackend.
func WithStateDir(dir string) Option {
	return func(c *config) {
		if dir == "" {
			c.fail(fmt.Errorf("iabc: WithStateDir(\"\")"))
			return
		}
		c.stateDir = dir
	}
}

// WithBackend makes Check and MaxF persist checkpoints and verdicts through
// b — any StateBackend implementation, e.g. NewMemBackend for tests or a
// custom remote store. Mutually exclusive with WithStateDir.
func WithBackend(b StateBackend) Option {
	return func(c *config) {
		if b == nil {
			c.fail(fmt.Errorf("iabc: WithBackend(nil)"))
			return
		}
		c.backend = b
	}
}

// WithCoordinator makes Check, MaxF, and Sweep run as a distributed
// coordinator: the call binds a job port at addr ("host:port"; ":0" picks a
// free port), partitions its work into leased job ranges, and serves them to
// workers that join via Work or `iabc work -join`. Results — verdicts,
// witnesses, work counters, traces — are identical to the single-process
// run, including when workers crash mid-lease; combine with WithStateDir or
// WithBackend for a durable frontier that survives coordinator restarts
// too. Without WithWorkerPool the call waits for remote workers to join.
func WithCoordinator(addr string) Option {
	return func(c *config) {
		if addr == "" {
			c.fail(fmt.Errorf("iabc: WithCoordinator(\"\")"))
			return
		}
		c.coordAddr = addr
	}
}

// WithWorkerPool distributes the call across n in-process workers joined to
// the call's own coordinator over in-memory connections; the call binds a
// port only with WithCoordinator, whose remote workers then share the work
// with the pool (the two compose). Unlike
// WithWorkers, the work flows through the full job protocol: leases,
// stealing, and the durable frontier behave exactly as in a multi-machine
// deployment, which makes a pool of one a deterministic end-to-end test of
// a distributed setup.
func WithWorkerPool(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.fail(fmt.Errorf("iabc: WithWorkerPool(%d): need at least one worker", n))
			return
		}
		c.workerPool = n
	}
}

// stateBackend resolves the configured persistence backend, if any.
func (c *config) stateBackend() (statestore.Backend, error) {
	if c.backend != nil && c.stateDir != "" {
		return nil, fmt.Errorf("iabc: WithStateDir and WithBackend are mutually exclusive")
	}
	if c.backend != nil {
		return c.backend, nil
	}
	if c.stateDir != "" {
		return statestore.NewDir(c.stateDir)
	}
	return nil, nil
}

// faultySet materializes the configured fault set for an n-node graph.
func (c *config) faultySet(n int) (Set, error) {
	if !c.hasFaulty {
		return Set{}, nil
	}
	if c.faultyRaw != nil {
		s := NewSet(n)
		for _, id := range c.faultyRaw {
			if id >= n {
				return Set{}, fmt.Errorf("iabc: faulty node %d out of range [0,%d)", id, n)
			}
			s.Add(id)
		}
		return s, nil
	}
	return c.faulty, nil
}

// batchExtras synthesizes the WithBatch replay vectors around initial.
func (c *config) batchExtras(initial []float64) [][]float64 {
	if c.batch == 0 {
		return c.extras
	}
	rng := rand.New(rand.NewSource(c.seed))
	extras := make([][]float64, c.batch)
	for x := range extras {
		v := make([]float64, len(initial))
		for i := range v {
			v[i] = initial[i] + rng.Float64() - 0.5
		}
		extras[x] = v
	}
	return extras
}

// simConfig assembles the synchronous engine configuration.
func (c *config) simConfig(g *Graph) (sim.Config, error) {
	faulty, err := c.faultySet(g.N())
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		G:            g,
		F:            c.f,
		Faulty:       faulty,
		Initial:      c.initial,
		Rule:         c.rule,
		Adversary:    c.adversary,
		MaxRounds:    c.maxRounds,
		Epsilon:      c.epsilon,
		RecordStates: c.recordStates,
	}, nil
}
