package iabc

// This file is the facade's vocabulary: aliases and thin wrappers
// re-exporting the implementation types a caller needs to drive Simulate,
// Sweep, Check, and MaxF — graphs and topologies, node sets, update rules,
// Byzantine strategies, delay policies, and the analysis helpers. The
// aliases are real type identities (not copies), so values cross the facade
// boundary without conversion; api/iabc.txt freezes this surface.

import (
	"fmt"
	"io"

	"iabc/internal/adversary"
	"iabc/internal/analysis"
	"iabc/internal/async"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/statestore"
	"iabc/internal/topology"
)

// —— Graphs and node sets ——

// Graph is an immutable directed graph (no self-loops); build one with
// NewBuilder, ParseEdgeList, or a topology constructor.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for an n-node graph.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// ParseEdgeList reads the "n <count>" header plus "from to" lines emitted
// by Graph.WriteEdgeList.
func ParseEdgeList(r io.Reader) (*Graph, error) { return graph.ParseEdgeList(r) }

// Set is a fixed-capacity bitset of node IDs.
type Set = nodeset.Set

// NewSet returns an empty set over node IDs [0, n).
func NewSet(n int) Set { return nodeset.New(n) }

// SetOf returns a set over [0, n) containing the given members.
func SetOf(n int, members ...int) Set { return nodeset.FromMembers(n, members...) }

// —— Paper topologies ——

// Complete returns the complete digraph K_n.
func Complete(n int) (*Graph, error) { return topology.Complete(n) }

// CoreNetwork returns the Definition 4 core network: a K_{2f+1} core whose
// members link bidirectionally to every peripheral node.
func CoreNetwork(n, f int) (*Graph, error) { return topology.CoreNetwork(n, f) }

// Chord returns the Definition 5 chord network: node i links
// bidirectionally to i±1, …, i±(f+1) (mod n).
func Chord(n, f int) (*Graph, error) { return topology.Chord(n, f) }

// Hypercube returns the d-dimensional bidirectional hypercube (§6.2).
func Hypercube(d int) (*Graph, error) { return topology.Hypercube(d) }

// Circulant returns the directed circulant: i → i+off (mod n) for every
// offset.
func Circulant(n int, offsets []int) (*Graph, error) { return topology.Circulant(n, offsets) }

// —— Algorithm 1 update rules ——

// UpdateRule is the node transition function Z_i.
type UpdateRule = core.UpdateRule

// ValueFrom is one received (value, sender) pair.
type ValueFrom = core.ValueFrom

// TrimmedMean is Algorithm 1's rule: drop the f largest and f smallest
// received values, average the survivors with the own state.
type TrimmedMean = core.TrimmedMean

// Mean averages all received values with the own state (f = 0 baseline).
type Mean = core.Mean

// —— Byzantine strategies ——

// Strategy decides the transmissions of faulty nodes each round.
type Strategy = adversary.Strategy

// RoundView is the omniscient per-round snapshot handed to strategies.
type RoundView = adversary.RoundView

// EdgeSink receives a strategy's per-edge transmissions on the fast path.
type EdgeSink = adversary.EdgeSink

// EdgeWriter is the optional zero-allocation strategy fast path; implement
// it to keep the engines' round loops allocation-free.
type EdgeWriter = adversary.EdgeWriter

// The built-in strategies of the paper's attack repertoire.
type (
	// Conforming follows the algorithm correctly (faulty in name only).
	Conforming = adversary.Conforming
	// Fixed sends one constant value to every receiver.
	Fixed = adversary.Fixed
	// Silent sends nothing.
	Silent = adversary.Silent
	// RandomNoise sends independent uniform noise per receiver per round.
	RandomNoise = adversary.RandomNoise
	// Extremes alternates amplified extremes across receivers.
	Extremes = adversary.Extremes
	// PartitionAttack is the Theorem 1 impossibility adversary: it freezes
	// two insulated sets at distinct values forever.
	PartitionAttack = adversary.PartitionAttack
	// Hug hugs the fault-free range's edge from inside — the sharpest
	// in-range attack.
	Hug = adversary.Hug
	// Insider equivocates per-receiver values just inside each receiver's
	// trim window.
	Insider = adversary.Insider
)

// AdversaryByName resolves a built-in strategy by CLI name, seeding
// randomized ones from seed. See AdversaryNames for the accepted names.
func AdversaryByName(name string, seed int64) (Strategy, error) {
	strat, err := adversary.ByName(name, seed)
	if err != nil {
		return nil, fmt.Errorf("iabc: unknown adversary %q (want one of %v)", name, AdversaryNames())
	}
	return strat, nil
}

// AdversaryNames lists the names AdversaryByName accepts (the canonical
// name per strategy; "" and "none" are aliases of "conforming").
func AdversaryNames() []string { return adversary.Names() }

// —— Simulation results and sweep inputs ——

// Trace records a synchronous run (see the sim package for field docs).
type Trace = sim.Trace

// Scenario is one variation of the base configuration in a Sweep.
type Scenario = sim.Scenario

// SweepResult is Sweep's output, index-aligned with the scenarios.
type SweepResult = sim.SweepResult

// AsyncTrace records an asynchronous run.
type AsyncTrace = async.Trace

// —— Asynchronous delay policies ——

// DelayPolicy assigns per-message delays in the Async engine.
type DelayPolicy = async.DelayPolicy

// FixedDelay delivers every message after exactly D time units.
type FixedDelay = async.Fixed

// UniformDelay draws delays uniformly from (0, B].
type UniformDelay = async.Uniform

// TargetedDelay is the adversarial scheduler: full bound B on messages
// from Slow senders, Fast for everyone else.
type TargetedDelay = async.Targeted

// —— Condition checking, analysis, and repair ——

// CheckResult reports an exact Theorem 1 decision with work counters.
type CheckResult = condition.Result

// Witness is a partition certifying a Theorem 1 violation; re-verify it
// with Witness.Verify.
type Witness = condition.Witness

// Violation is one failed polynomial-time necessary condition.
type Violation = condition.Violation

// MaxFStats aggregates the checker work across a MaxF scan.
type MaxFStats = condition.MaxFStats

// RepairResult is Repair's output: the augmented graph and added edges.
type RepairResult = condition.RepairResult

// SyncThreshold returns the synchronous in-link threshold f+1.
func SyncThreshold(f int) int { return condition.SyncThreshold(f) }

// AsyncThreshold returns the Section 7 asynchronous threshold 2f+1.
func AsyncThreshold(f int) int { return condition.AsyncThreshold(f) }

// QuickScreen evaluates the polynomial-time necessary conditions
// (Corollaries 2 and 3) without the exponential check; a non-empty result
// proves the condition fails, an empty one proves nothing.
func QuickScreen(g *Graph, f int) []Violation { return condition.QuickScreen(g, f) }

// QuickScreenAsync is QuickScreen for the Section 7 asynchronous model.
func QuickScreenAsync(g *Graph, f int) []Violation { return condition.QuickScreenAsync(g, f) }

// Repair greedily adds edges until the graph satisfies the Theorem 1
// condition for f, within the given edge budget.
func Repair(g *Graph, f, maxEdges int) (*RepairResult, error) {
	return condition.Repair(g, f, maxEdges)
}

// —— Scan persistence (WithStateDir / WithBackend) ——

// StateBackend is the pluggable persistence layer behind WithBackend:
// a small keyed byte store over which Check and MaxF checkpoint scan
// progress and cache verdicts. Keys are slash-separated path-like strings;
// implementations must make Write atomic and return ErrStateNotFound from
// Read on absent keys.
type StateBackend = statestore.Backend

// DirBackend persists state as files under a local directory; build one
// with NewDirBackend, or let WithStateDir do it.
type DirBackend = statestore.Dir

// MemBackend is an in-memory StateBackend for tests and single-process
// pipelines.
type MemBackend = statestore.Mem

// ErrStateNotFound is returned by StateBackend.Read for absent keys.
var ErrStateNotFound = statestore.ErrNotFound

// NewDirBackend returns a DirBackend rooted at dir, creating it if absent.
func NewDirBackend(dir string) (*DirBackend, error) { return statestore.NewDir(dir) }

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return statestore.NewMem() }

// Alpha returns the Lemma 5 contraction parameter α for (g, f).
func Alpha(g *Graph, f int) (float64, error) { return analysis.Alpha(g, f) }

// RoundsToEpsilonBound returns the worst-case rounds bound to shrink
// initialRange below eps at contraction α.
func RoundsToEpsilonBound(n, f int, alpha, initialRange, eps float64) (int, error) {
	return analysis.RoundsToEpsilonBound(n, f, alpha, initialRange, eps)
}
