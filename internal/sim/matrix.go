package sim

import (
	"errors"
	"fmt"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// Matrix is the batched engine built on the matrix representation of
// iterative approximate Byzantine consensus (Vaidya, arXiv:1203.1888): for a
// fixed execution, every round of Algorithm 1 is the application of a
// row-stochastic transition to the state vector,
//
//	v[t] = M[t] · v[t−1],
//
// where row i places weight a_i on node i itself and on each surviving
// in-neighbor, and the Byzantine influence appears as per-round constants
// (the values the adversary injected on surviving edges). Matrix.Run
// materializes that transition — a roundProgram — for each round while
// executing it, and produces traces bit-identical to Sequential: the program
// rows replay the exact summation order of the canonical update (own state
// first, then survivors in ascending sender order, one multiply by a_i at
// the end).
//
// The payoff is RunBatch: each round's program is replayed over many
// additional initial-value vectors at a few flops per edge, with the round
// structure (trim decisions, adversary values, weights) paid for once. The
// replay streams: every program is pushed through all extra vectors the
// moment it is recorded, before the next round rebuilds it, so the whole
// batch needs only O(edges) program memory however many rounds execute. The
// batch columns follow the primary execution's matrices — the
// matrix-representation semantics, i.e. a sensitivity/what-if analysis of
// the recorded execution, not independent simulations.
//
// Matrix supports the rules whose rounds are affine in the state:
// core.TrimmedMean and core.Mean, in the synchronous model only (no
// Config.Stale). The zero value is ready to use.
type Matrix struct{}

var _ Engine = Matrix{}

// Name implements Engine.
func (Matrix) Name() string { return "matrix" }

// roundProgram is one round's row-stochastic transition in a flat CSR-style
// encoding: row i's summands are cols[rowOff[i]:rowOff[i+1]] in canonical
// received order. An entry ≥ 0 references a state-vector column (a
// fault-free or ghost value); an entry of −1 consumes the next literal from
// the consts stream (an adversary-injected value) — the separated col/const
// streams keep both dense while the shared cols walk preserves the exact
// per-row term order. weight[i] is a_i. Frozen nodes (faulty with undefined
// ghost update) have no terms and weight 1, so the row is the identity.
//
// The whole program is three contiguous arrays plus the offsets — O(edges)
// memory with no per-row slice headers — so apply/applyBatch stream it with
// contiguous loads and the backing capacity survives reset across rounds.
type roundProgram struct {
	rowOff []int32
	cols   []int32
	consts []float64
	weight []float64
}

// reset readies the program for re-recording an n-node round, keeping the
// backing arrays' capacity.
func (pr *roundProgram) reset(n int) {
	pr.rowOff = append(pr.rowOff[:0], 0)
	pr.cols = pr.cols[:0]
	pr.consts = pr.consts[:0]
	if cap(pr.weight) < n {
		pr.weight = make([]float64, n)
	}
	pr.weight = pr.weight[:n]
}

// endRow seals the current row after its terms were appended.
func (pr *roundProgram) endRow() {
	pr.rowOff = append(pr.rowOff, int32(len(pr.cols)))
}

// apply evaluates dst = M·src with the canonical summation order.
func (pr *roundProgram) apply(src, dst []float64) {
	cols, consts, weight, rowOff := pr.cols, pr.consts, pr.weight, pr.rowOff
	ci := 0
	for i := range dst {
		sum := src[i]
		for _, c := range cols[rowOff[i]:rowOff[i+1]] {
			if c >= 0 {
				sum += src[c]
			} else {
				sum += consts[ci]
				ci++
			}
		}
		dst[i] = weight[i] * sum
	}
}

// applyBatch evaluates dst = M·src over K state vectors stored
// structure-of-arrays: src[i*K+x] is vector x's value at node i. Each
// program row is decoded once and applied to all K columns in contiguous
// inner loops (acc is a caller-owned K-wide accumulator), so the batch pays
// the flat row walk once instead of K times and the K-stride inner loops run
// over plain contiguous slices of equal length — the shape the compiler
// turns into branch-free, bounds-check-eliminated code. Per column the
// floating-point operations and their order are exactly those of apply, so
// results are bit-identical to K scalar replays.
func (pr *roundProgram) applyBatch(src, dst []float64, K int, acc []float64) {
	cols, consts, weight, rowOff := pr.cols, pr.consts, pr.weight, pr.rowOff
	acc = acc[:K]
	ci := 0
	for i := range weight {
		base := i * K
		copy(acc, src[base:base+K])
		for _, c := range cols[rowOff[i]:rowOff[i+1]] {
			if c >= 0 {
				col := src[int(c)*K : int(c)*K+K]
				for x := range acc {
					acc[x] += col[x]
				}
			} else {
				v := consts[ci]
				ci++
				for x := range acc {
					acc[x] += v
				}
			}
		}
		w := weight[i]
		out := dst[base : base+K]
		for x := range acc {
			out[x] = w * acc[x]
		}
	}
}

// Run implements Engine.
func (Matrix) Run(cfg Config) (*Trace, error) {
	tr, _, err := runMatrix(cfg, false, nil)
	return tr, err
}

// newRunner builds the matrix engine's pooled runner for scenario sweeps:
// the plane, receive buffer, survivor mask, and program storage are all
// reused across scenarios, and the streaming replay buffers are kept warm
// for the composed Extras dimension.
func (Matrix) newRunner(g *graph.Graph) ScenarioRunner {
	return &matrixRunner{g: g, st: newMatrixScratch(g)}
}

// matrixRunner implements ScenarioRunner and batchRunner over a
// matrixScratch.
type matrixRunner struct {
	g    *graph.Graph
	st   *matrixScratch
	bufs replayBufs
}

func (r *matrixRunner) RunScenario(cfg *Config) (*Trace, error) {
	if cfg.G != r.g {
		return nil, errors.New("sim: scenario config graph differs from the runner's graph")
	}
	if err := validateMatrix(cfg); err != nil {
		return nil, err
	}
	tr, _, err := runMatrixOn(r.st, cfg, false, nil)
	if err != nil {
		return nil, err
	}
	return &tr.Trace, nil
}

// runBatchScenario streams the scenario's round programs through the extra
// initial vectors as they are recorded — the program storage is one
// rebuilt-in-place round, O(edges), regardless of the scenario's round
// budget. The finals are materialized fresh (not aliased to the pooled
// replay buffers) because Sweep retains every scenario's finals side by
// side.
func (r *matrixRunner) runBatchScenario(cfg *Config, extras [][]float64) (*Trace, [][]float64, error) {
	if cfg.G != r.g {
		return nil, nil, errors.New("sim: scenario config graph differs from the runner's graph")
	}
	if err := validateMatrix(cfg); err != nil {
		return nil, nil, err
	}
	var stream replayStream
	stream.init(&r.bufs, extras, r.g.N())
	tr, _, err := runMatrixOn(r.st, cfg, false, &stream)
	if err != nil {
		return nil, nil, err
	}
	return &tr.Trace, stream.finals(nil), nil
}

// replayBufs holds the structure-of-arrays replay state (cur/nxt ping-pong
// planes, the K-wide accumulator, and the finals storage) so repeated
// replays do not reallocate.
type replayBufs struct {
	cur, nxt, acc []float64
	// finals/finalsBack are the per-vector result storage replayPrograms
	// hands back: headers and backing are reused across calls, so results
	// from one replay are only valid until the next replay through the same
	// bufs.
	finals     [][]float64
	finalsBack []float64
}

// soa readies the ping-pong planes and accumulator for an n×K replay and
// returns them, reusing capacity when it suffices.
func (bufs *replayBufs) soa(n, K int) (cur, nxt, acc []float64) {
	if cap(bufs.cur) < n*K {
		bufs.cur = make([]float64, n*K)
		bufs.nxt = make([]float64, n*K)
	}
	if cap(bufs.acc) < K {
		bufs.acc = make([]float64, K)
	}
	return bufs.cur[:n*K], bufs.nxt[:n*K], bufs.acc[:K]
}

// takeFinals returns a K×n finals matrix backed by the bufs' reusable
// storage.
func (bufs *replayBufs) takeFinals(n, K int) [][]float64 {
	if cap(bufs.finals) < K {
		bufs.finals = make([][]float64, K)
	}
	if cap(bufs.finalsBack) < n*K {
		bufs.finalsBack = make([]float64, n*K)
	}
	finals := bufs.finals[:K]
	back := bufs.finalsBack[:n*K]
	for x := range finals {
		finals[x] = back[x*n : (x+1)*n : (x+1)*n]
	}
	return finals
}

// replayStream is the streaming half of the O(edges) batch replay: the
// primary loop hands each round's freshly recorded program to step, which
// pushes it through all K extra vectors before the next round rebuilds the
// program — no program sequence is ever retained.
type replayStream struct {
	K        int
	n        int
	cur, nxt []float64 // SoA ping-pong planes, views into a replayBufs
	acc      []float64
}

// init carves the SoA planes out of bufs and seeds cur with the transposed
// extras: cur[i*K+x] = extras[x][i]. A zero-length extras slice leaves the
// stream inert (step is a no-op).
func (s *replayStream) init(bufs *replayBufs, extras [][]float64, n int) {
	s.K = len(extras)
	s.n = n
	if s.K == 0 {
		s.cur, s.nxt, s.acc = nil, nil, nil
		return
	}
	s.cur, s.nxt, s.acc = bufs.soa(n, s.K)
	for x, init := range extras {
		for i, v := range init {
			s.cur[i*s.K+x] = v
		}
	}
}

// step advances all K vectors through one recorded round program. Per
// column the operations are exactly those of apply (see applyBatch), so the
// streamed batch is bit-identical to retaining the program sequence and
// replaying it afterwards.
func (s *replayStream) step(pr *roundProgram) {
	if s.K == 0 {
		return
	}
	pr.applyBatch(s.cur, s.nxt, s.K, s.acc)
	s.cur, s.nxt = s.nxt, s.cur
}

// finals transposes the streamed SoA state back into per-vector final
// slices, index-aligned with the init extras. With dst == nil the finals
// are freshly allocated (safe to retain — the stream's buffers are reused);
// otherwise they are written into dst[:K].
func (s *replayStream) finals(dst [][]float64) [][]float64 {
	if dst == nil {
		dst = make([][]float64, s.K)
	}
	dst = dst[:s.K]
	for x := range dst {
		if dst[x] == nil {
			dst[x] = make([]float64, s.n)
		}
		for i := range dst[x] {
			dst[x][i] = s.cur[i*s.K+x]
		}
	}
	return dst
}

// replayPrograms replays a retained program sequence over every extra
// initial vector in SoA layout and returns the per-vector final states,
// index-aligned with extras. Results are bit-identical to replaying the
// vectors one at a time (see applyBatch). The returned finals are backed by
// bufs-owned storage — allocation-free once the bufs are warm — and remain
// valid only until the next replay through the same bufs; copy them out to
// retain them longer.
func replayPrograms(progs []*roundProgram, extras [][]float64, n int, bufs *replayBufs) [][]float64 {
	K := len(extras)
	if K == 0 {
		return bufs.finals[:0:0]
	}
	cur, nxt, acc := bufs.soa(n, K)
	// Transpose extras into SoA: cur[i*K+x] = extras[x][i].
	for x, init := range extras {
		for i, v := range init {
			cur[i*K+x] = v
		}
	}
	for _, pr := range progs {
		pr.applyBatch(cur, nxt, K, acc)
		cur, nxt = nxt, cur
	}
	finals := bufs.takeFinals(n, K)
	for x := range finals {
		final := finals[x]
		for i := range final {
			final[i] = cur[i*K+x]
		}
	}
	return finals
}

// validateExtras bounds-checks the extra initial vectors against the
// config's graph.
func validateExtras(cfg *Config, extras [][]float64) error {
	if cfg.G == nil {
		return errors.New("sim: nil graph")
	}
	n := cfg.G.N()
	for x, init := range extras {
		if len(init) != n {
			return fmt.Errorf("sim: extra initial %d has length %d, want n = %d", x, len(init), n)
		}
	}
	return nil
}

// RunBatch executes cfg once (the primary run), streaming each round's
// transition program through every extra initial vector as it is recorded.
// It returns the primary trace and, index-aligned with extras, each extra
// vector's final state. Extra vectors must have length cfg.G.N().
//
// Replay cost is O(rounds · edges) time for the batch-row walk plus
// O(rounds · edges · K) flops with no trimming, no sorting, and no
// adversary calls — the amortization that makes wide multi-scenario sweeps
// cheap. The batch is laid out structure-of-arrays (see applyBatch) so each
// recorded program row streams over all K vectors in one pass; results are
// bit-identical to replaying the vectors one at a time. Program memory is
// O(edges) — one flat program rebuilt in place per round — independent of
// the round count, so arbitrarily long runs and large K compose freely.
func (Matrix) RunBatch(cfg Config, extras [][]float64) (*Trace, [][]float64, error) {
	if err := validateExtras(&cfg, extras); err != nil {
		return nil, nil, err
	}
	var bufs replayBufs
	var stream replayStream
	stream.init(&bufs, extras, cfg.G.N())
	tr, _, err := runMatrix(cfg, false, &stream)
	if err != nil {
		return nil, nil, err
	}
	return tr, stream.finals(nil), nil
}

// runBatchRetained is the record-then-replay reference implementation of
// RunBatch: it retains every executed round's program — O(rounds · edges)
// memory — and replays the whole sequence afterwards through
// replayPrograms. The streaming production path is pinned bit-identical to
// it by the conformance suite (TestStreamingReplayMatchesRetainedReference);
// it is not used outside tests.
func runBatchRetained(cfg Config, extras [][]float64, bufs *replayBufs) (*Trace, [][]float64, error) {
	if err := validateExtras(&cfg, extras); err != nil {
		return nil, nil, err
	}
	tr, progs, err := runMatrix(cfg, true, nil)
	if err != nil {
		return nil, nil, err
	}
	return tr, replayPrograms(progs, extras, cfg.G.N(), bufs), nil
}

// matrixScratch bundles the reusable per-graph state behind matrix runs: the
// source-tracking plane, receive buffer, survivor mask, frozen flags, and a
// free list of round programs recycled across recorded scenarios.
type matrixScratch struct {
	g      *graph.Graph
	p      *edgePlane
	recv   []core.ValueFrom
	mask   []bool
	frozen []bool
	pool   []*roundProgram
}

func newMatrixScratch(g *graph.Graph) *matrixScratch {
	n := g.N()
	p := newEdgePlane(g, nodeset.New(n), true)
	return &matrixScratch{
		g:      g,
		p:      p,
		recv:   newRecvPlane(p),
		mask:   make([]bool, p.inOff[n]),
		frozen: make([]bool, n),
	}
}

// takeProgram hands out a program, preferring the free list so flat-array
// capacity survives across rounds and scenarios.
func (st *matrixScratch) takeProgram() *roundProgram {
	if k := len(st.pool); k > 0 {
		pr := st.pool[k-1]
		st.pool = st.pool[:k-1]
		return pr
	}
	return &roundProgram{}
}

// recycle returns recorded programs to the free list once their replay is
// done.
func (st *matrixScratch) recycle(progs []*roundProgram) {
	st.pool = append(st.pool, progs...)
}

// validateMatrix is Config.Validate for the matrix engine, which runs the
// synchronous model only: a round program maps v[t−1] alone to v[t], so
// there is no history for Config.Stale to read from.
func validateMatrix(cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Stale != nil {
		return errors.New("sim: the matrix engine runs the synchronous model only; Config.Stale needs Sequential")
	}
	return nil
}

// runMatrix is the single-run entry: validate, build fresh scratch, run.
func runMatrix(cfg Config, keep bool, stream *replayStream) (*Trace, []*roundProgram, error) {
	if err := validateMatrix(&cfg); err != nil {
		return nil, nil, err
	}
	tr, progs, err := runMatrixOn(newMatrixScratch(cfg.G), &cfg, keep, stream)
	if err != nil {
		return nil, nil, err
	}
	return &tr.Trace, progs, nil
}

// runMatrixOn is the shared primary loop over reusable scratch state. When
// stream is non-nil every round's freshly recorded program is additionally
// pushed through the stream's extra vectors before the next round rebuilds
// it — the O(edges)-memory streaming replay. When keep is true every
// round's program is retained (and returned) instead — the
// O(rounds · edges) reference used by runBatchRetained and its tests.
// Otherwise a single program is rebuilt in place each round to keep the run
// allocation-light. The config must already be validated and its graph must
// match the scratch's.
func runMatrixOn(st *matrixScratch, cfg *Config, keep bool, stream *replayStream) (*tracer, []*roundProgram, error) {
	var trimF int // f used for trimming; -1 marks the Mean rule
	switch cfg.Rule.(type) {
	case core.TrimmedMean:
		trimF = cfg.F
	case core.Mean:
		trimF = -1
	default:
		return nil, nil, fmt.Errorf("sim: matrix engine requires an affine-representable rule (core.TrimmedMean or core.Mean), got %s", cfg.Rule.Name())
	}

	n := st.p.n
	faulty := cfg.faulty()
	faultFree := faulty.Complement()
	st.p.setFaulty(faulty)

	states := snapshot(cfg.Initial)
	next := make([]float64, n)
	tr := newTrace(cfg, states, faultFree)
	p := st.p

	recv := st.recv
	mask := st.mask
	var scratch core.Scratch
	adv := adversary.Writer(cfg.Adversary)
	hasAdv := adv != nil && len(p.faulty) > 0

	// frozen[i]: the update is statically undefined for node i's in-degree
	// (only possible for faulty nodes — Validate rejects it for fault-free
	// ones); the row stays the identity, matching Sequential's freeze.
	frozen := st.frozen
	for i := 0; i < n; i++ {
		frozen[i] = cfg.Rule.Validate(cfg.G.InDegree(i), cfg.F) != nil
	}

	var progs []*roundProgram
	var spare *roundProgram
	newProgram := func() *roundProgram {
		if keep {
			pr := st.takeProgram()
			progs = append(progs, pr)
			return pr
		}
		// The program is applied (and streamed) before the next round
		// rebuilds it, so one rebuilt-in-place program suffices.
		if spare == nil {
			spare = st.takeProgram()
		}
		return spare
	}
	defer func() {
		if spare != nil {
			st.recycle([]*roundProgram{spare})
		}
	}()

	for round := 1; round <= cfg.MaxRounds && !tr.Converged; round++ {
		p.fill(states)
		if hasAdv {
			p.applyAdversary(adv, roundView(cfg, round, states, faultFree, faulty))
		}
		pr := newProgram()
		pr.reset(n)
		for i := 0; i < n; i++ {
			lo, hi := p.inOff[i], p.inOff[i+1]
			if frozen[i] {
				pr.weight[i] = 1
				pr.endRow()
				continue
			}
			buf := recv[lo:hi]
			for k := range buf {
				buf[k].Value = p.values[lo+k]
			}
			row := mask[lo:hi]
			if trimF >= 0 {
				if err := scratch.SurvivorMask(buf, trimF, row); err != nil {
					return nil, nil, fmt.Errorf("sim: node %d round %d: %w", i, round, err)
				}
				pr.weight[i] = core.Weight(len(buf), trimF)
			} else {
				for k := range row {
					row[k] = true
				}
				pr.weight[i] = 1 / float64(len(buf)+1)
			}
			for k := range buf {
				if !row[k] {
					continue
				}
				if p.fromState[lo+k] {
					pr.cols = append(pr.cols, int32(buf[k].From))
				} else {
					pr.cols = append(pr.cols, -1)
					pr.consts = append(pr.consts, buf[k].Value)
				}
			}
			pr.endRow()
		}

		pr.apply(states, next)
		states, next = next, states
		if stream != nil {
			stream.step(pr)
		}

		if done := tr.record(cfg, round, states, faultFree); done {
			break
		}
	}
	tr.finish(states)
	return tr, progs, nil
}
