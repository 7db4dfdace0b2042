// Package iabc reproduces "Iterative Approximate Byzantine Consensus in
// Arbitrary Directed Graphs" (Vaidya, Tseng, Liang; PODC 2012) as a
// production-quality Go library.
//
// # The public facade
//
// This root package is the supported way to use the system. Four
// context-aware, option-based entry points expose the paper's two pillars
// — Algorithm 1 simulation across the cross-checked engines, and the exact
// Theorem 1 analysis view — behind one coherent API:
//
//   - Simulate(ctx, g, opts...) — one run on any engine (WithEngine:
//     Sequential, Matrix, or the §7 Async model), returning an
//     engine-independent Outcome;
//   - Sweep(ctx, g, scenarios, opts...) — batched scenario sweeps over
//     pooled engine state, fanned across cores (WithWorkers), with the
//     matrix replay dimension composed in via WithExtras/WithBatch;
//   - Check(ctx, g, f, opts...) — the exact Theorem 1 decision with
//     witnesses, parallel fault-set scanning, and the §7 threshold under
//     WithAsyncCondition;
//   - MaxF(ctx, g, opts...) / MaxFWithStats — the largest tolerable f;
//   - Cluster(ctx, g, opts...) — the §7 iteration as a live cluster of
//     goroutine-per-node actors over a pluggable Transport, with seeded
//     network chaos via WithChaos and per-update observer streaming.
//
// Every entry point honors its context — cancellation is checked at
// scenario, fault-set, or event-batch granularity, never inside the
// zero-allocation round loops — and streams progress through WithObserver
// without materializing traces. The supporting vocabulary (graphs,
// topologies, node sets, update rules, adversaries, delay policies) is
// re-exported here as type aliases, so callers never import internal
// packages; the in-tree CLI and all examples/ are consumers of this facade
// and nothing else (enforced by TestFacadeOnlyConsumers).
//
// The implementation lives under internal/:
//
//   - internal/core — Algorithm 1 (the trimmed-mean update) and the
//     UpdateRule abstraction, plus the zero-allocation fast path
//     (core.Scratch / BufferedRule.UpdateInto);
//   - internal/condition — the tight necessary & sufficient condition of
//     Theorem 1, propagation machinery, exact checker with witnesses;
//   - internal/sim, internal/async — synchronous and asynchronous engines,
//     with internal/delayed's staleness policies for the former;
//   - internal/node, internal/transport — the live actor runtime behind
//     Cluster and its message transports, chaos injection included;
//   - internal/adversary — Byzantine strategies;
//   - internal/statestore, internal/distrib — resumable scans (every
//     persisted record under one envelope, statestore.Record) and the leased
//     distributed scan runner;
//   - internal/wire — the one length-prefixed frame reader under both
//     socket protocols, and bit-exact floats in JSON;
//   - internal/graph, internal/topology, internal/nodeset — substrates;
//   - internal/analysis — α, Lemma 5 contraction bounds, rate measurement;
//   - internal/experiments — the paper artifacts E1–E15 as one table of
//     experiments over this facade, output pinned by a golden.
//
// # Choosing an engine
//
// Two synchronous engines share one semantics and produce bit-identical
// traces (cross-checked by tests):
//
//   - sim.Sequential — the default. Single goroutine, flat preallocated
//     message plane, allocation-free steady state; fastest for a single
//     scenario and the reference the other is checked against.
//   - sim.Matrix — materializes every round as a row-stochastic transition
//     (the matrix representation of arXiv:1203.1888). Run matches
//     Sequential; sim.Sweep with SweepOptions.Extras streams each round's
//     transition over many initial vectors in structure-of-arrays layout, a
//     few flops per edge per vector and O(edges) program memory however
//     long the run — use it for multi-scenario sensitivity sweeps where the
//     round structure is shared. Supports the affine rules (TrimmedMean,
//     Mean) only.
//
// sim.Sequential also runs the §7 closing remark's partially asynchronous
// model (sim.Config.Stale, measured by E15; not a facade option): rounds
// stay synchronous, but a fault-free value may be up to B−1 rounds old, read
// from a ring of the last B state vectors. Matrix rejects it, since its
// programs map v[t−1] alone to v[t].
//
// For sweeps that vary the adversary (or fault set) rather than the initial
// vector — where the round structure itself changes and the matrix replay
// does not apply — sim.Sweep re-simulates each scenario over pooled
// per-worker engine state (the sequential plane or the matrix scratch) and
// fans independent scenarios across cores (SweepOptions.Workers; ≤ 0
// selects GOMAXPROCS). sim.Sweep is the one batch entry point: with the
// Matrix engine, SweepOptions.Extras composes both batching dimensions, and
// each scenario's recorded round programs are SoA-replayed over K extra
// initial vectors. Parallel sweeps are bit-identical to sequential ones as
// long as scenarios do not share mutable adversary state.
//
// internal/async is a different model entirely (Section 7 quorum
// iteration under message delays), not a third engine for the synchronous
// semantics. The algorithm as genuine message passing — one goroutine per
// node, values on real queues or sockets — is Cluster; at f = 0, where the
// quorum is the whole in-neighborhood, its finals are bit-identical to
// sim.Sequential's (TestClusterMatchesSequentialSimulate).
//
// # Fast-path invariants
//
// The hot loops rely on, and the test suite enforces, these invariants:
//
//  1. Canonical summation order. An update is a_i·(own + Σ survivors),
//     summed own-first then in received (ascending sender) order. Every
//     path — reference Update, scratch UpdateInto, matrix row replay —
//     produces bit-identical float64 results.
//  2. Total trimming order. Trimming sorts by (value, sender); sender
//     breaks ties deterministically ("breaking ties arbitrarily" in the
//     paper). The quickselect fast path and the sort-based reference agree
//     on the exact survivor set, NaN and ±Inf included.
//  3. Steady-state zero allocation. core.Scratch buffers, the engines'
//     edge-indexed message planes, and the async ring inboxes reuse their
//     storage, and every engine drives the rule through UpdateInto and the
//     adversary through WriteMessages only (normalised once per run by
//     core.Buffered and adversary.Writer) — with the built-in rules and
//     strategies the round loop allocates nothing in steady state (enforced
//     by TestEngineRoundLoopZeroSteadyStateAllocs and the *-steady
//     benchmarks). Only a user rule or strategy without the fast method,
//     served by the adapters, and trace growth beyond the preallocated
//     window allocate.
//  4. Determinism. Given identical configs (and seeds for randomized
//     strategies), every engine produces identical traces across runs.
//  5. Pruning soundness. The exact checker's degree lower bound can never
//     skip a real witness: a node of an insulated set X has at most |X|−1
//     in-neighbors inside X (the graph type rejects self-loops), so
//     insulation forces base(v) ≤ threshold + |X| − 2 for every member —
//     any node above that bound is excluded from size-|X| candidates with
//     its whole combination subtree. Every insulated set therefore
//     consists solely of admitted nodes, surviving candidates keep the
//     full enumeration's relative order, and condition.Check returns a
//     bit-identical Satisfied verdict and Witness with or without pruning
//     (and with or without the prefix lookahead, which skips a partial
//     candidate only when some member can no longer collect enough
//     in-neighbors inside any completion of it, and the empty-complement
//     memo, which only skips peels whose emptiness is implied by a
//     memoized subset). The same
//     holds for the orbit cut: Definition 1 is invariant under every
//     automorphism of the graph, so the checker scans one fault set per
//     orbit of the automorphisms it finds and lets the others inherit the
//     verdict and counter delta; the lowest violating fault set is the
//     lowest of its orbit, so it is scanned itself and the Witness and the
//     counters match the every-fault-set scan at any worker count, whether
//     the generator search found the whole group or none of it. Enforced by
//     the property tests in internal/condition/prune_test.go, the
//     differential tests in lookahead_test.go and orbit_test.go
//     (docs/THEORY.md, "The prefix lookahead" and "Symmetry") and
//     the E14 cross-validation against condition.CheckViaReducedGraphs.
//  6. Facade stability. The root package's exported surface is frozen in
//     api/iabc.txt, regenerated only by a deliberate `go generate .`;
//     TestAPISurfaceGolden fails the build when the tree drifts from the
//     committed golden, so breaking the public API is always an explicit,
//     reviewed act. The facade adds context, options, and observation —
//     never semantics: every entry point is pinned bit-identical to the
//     internal implementation it fronts (facade_test.go), cancellation is
//     checked only between scenarios / fault sets / event batches (the
//     round loops stay allocation-free, invariant 3), and observer
//     callbacks are serialized even when work fans across workers.
//  7. Flat program encoding. The matrix engine records each round as one
//     CSR-style flat program — a shared column stream with row offsets, a
//     separate literal stream for adversary-injected values, and per-row
//     weights — walked in the exact canonical order of invariant 1, so the
//     contiguous batch kernels stay bit-identical to the scalar reference.
//     Batch replay is streaming: every program is pushed through all K
//     extra vectors before the next round rebuilds it in place, holding
//     program memory at O(edges) independent of the round count (enforced
//     by TestStreamingReplayMatchesRetainedReference,
//     TestStreamingReplayProgramMemoryOEdges, and FuzzRoundProgramFlat).
//  8. Calendar-queue event core. The async engine's pending-event set is a
//     bucketed calendar queue: days of fitted width, day d in bucket d mod
//     nbuckets, resized on a 2-per-bucket grow / ⅛-per-bucket shrink
//     hysteresis, with all day indexing through one monotone clamped map so
//     push placement and pop windows can never disagree. Pop order is
//     exactly the heap's (at, seq) contract — earliest time, FIFO among
//     ties — so traces are bit-identical to the container/heap reference
//     (TestCalendarQueueRunMatchesHeap, FuzzCalendarQueueMatchesHeap)
//     while push/pop allocate nothing in steady state.
//
// bench_test.go in this directory hosts the go test -bench layer
// micro-benchmarks for the hot paths. The repo benchmark a change is judged
// by is declared in BENCHMARK.json and run with `go run ./benchmark`: eight
// end-to-end workloads with per-layer attribution. See README.md for a guided tour and EXPERIMENTS.md for
// paper-vs-measured results.
package iabc

//go:generate go run ./cmd/apigen
