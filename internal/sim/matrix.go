package sim

import (
	"errors"
	"fmt"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
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
// The payoff is the batch replay, Sweep with SweepOptions.Extras: each
// scenario's round programs are replayed over many additional initial-value
// vectors at a few flops per edge, with the round structure (trim
// decisions, adversary values, weights) paid for once. The replay streams:
// every program is pushed through all extra vectors the moment it is
// recorded, before the next round rebuilds it, so the whole batch needs
// only O(edges) program memory however many rounds execute. The batch
// columns follow the primary execution's matrices — the
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
func (e Matrix) Run(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, _, err := e.newRunner(cfg.G).run(&cfg, nil)
	return tr, err
}

// newRunner builds the matrix engine's pooled runner.
func (Matrix) newRunner(g *graph.Graph) runner {
	p := newEdgePlane(g, true)
	return &matrixRunner{
		p:      p,
		recv:   newRecvPlane(p),
		mask:   make([]bool, p.inOff[p.n]),
		frozen: make([]bool, p.n),
	}
}

// matrixRunner is the matrix engine's per-graph state, reused across
// scenarios: the source-tracking plane, receive buffer, survivor mask,
// frozen flags, the one round program rebuilt in place every round, and the
// replay stream's buffers, kept warm for the Extras dimension.
type matrixRunner struct {
	p      *edgePlane
	recv   []core.ValueFrom
	mask   []bool
	frozen []bool
	prog   roundProgram
	stream replayStream
}

// run executes cfg, streaming each round's program through the extra
// initial vectors as it is recorded — the program storage is one
// rebuilt-in-place round, O(edges), regardless of the round budget.
func (r *matrixRunner) run(cfg *Config, extras [][]float64) (*Trace, [][]float64, error) {
	if len(extras) == 0 {
		tr, err := runMatrixOn(r, cfg, nil)
		if err != nil {
			return nil, nil, err
		}
		return &tr.Trace, nil, nil
	}
	r.stream.init(extras, cfg.G.N())
	tr, err := runMatrixOn(r, cfg, &r.stream)
	if err != nil {
		return nil, nil, err
	}
	return &tr.Trace, r.stream.finals(), nil
}

// programSink receives each round's program from runMatrixOn right after
// the primary state applied it, before the next round rebuilds it in place.
type programSink interface {
	step(pr *roundProgram)
}

// replayStream is the O(edges) batch replay: runMatrixOn hands it each
// round's freshly recorded program, and step pushes that program through
// all K extra vectors, held structure-of-arrays in the cur/nxt ping-pong
// planes — no program sequence is ever retained.
type replayStream struct {
	K, n          int
	cur, nxt, acc []float64
}

// init readies the stream for K = len(extras) vectors of length n, reusing
// the planes' capacity when it suffices, and seeds cur with the transposed
// extras: cur[i*K+x] = extras[x][i].
func (s *replayStream) init(extras [][]float64, n int) {
	s.K, s.n = len(extras), n
	if cap(s.cur) < n*s.K {
		s.cur = make([]float64, n*s.K)
		s.nxt = make([]float64, n*s.K)
	}
	if cap(s.acc) < s.K {
		s.acc = make([]float64, s.K)
	}
	s.cur, s.nxt, s.acc = s.cur[:n*s.K], s.nxt[:n*s.K], s.acc[:s.K]
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
	pr.applyBatch(s.cur, s.nxt, s.K, s.acc)
	s.cur, s.nxt = s.nxt, s.cur
}

// finals transposes the streamed SoA state back into per-vector final
// slices, index-aligned with the extras. They are freshly allocated, not
// views of the reused planes, because Sweep retains every scenario's finals
// side by side.
func (s *replayStream) finals() [][]float64 {
	dst := make([][]float64, s.K)
	for x := range dst {
		dst[x] = make([]float64, s.n)
		for i := range dst[x] {
			dst[x][i] = s.cur[i*s.K+x]
		}
	}
	return dst
}

// runMatrixOn is the matrix primary loop over a runner's pooled state. Each
// round's program is rebuilt in place, applied to the state vector, and —
// when sink is non-nil — handed to sink before the next round rebuilds it.
// The config must already be validated and use the runner's graph; the
// matrix engine runs the synchronous model only, since a round program maps
// v[t−1] alone to v[t] and leaves no history for Config.Stale to read.
func runMatrixOn(r *matrixRunner, cfg *Config, sink programSink) (*tracer, error) {
	if cfg.Stale != nil {
		return nil, errors.New("sim: the matrix engine runs the synchronous model only; Config.Stale needs Sequential")
	}
	var trimF int // f used for trimming; -1 marks the Mean rule
	switch cfg.Rule.(type) {
	case core.TrimmedMean:
		trimF = cfg.F
	case core.Mean:
		trimF = -1
	default:
		return nil, fmt.Errorf("sim: matrix engine requires an affine-representable rule (core.TrimmedMean or core.Mean), got %s", cfg.Rule.Name())
	}

	n := r.p.n
	faulty := adversary.FaultSet(cfg.G, cfg.Faulty)
	faultFree := faulty.Complement()
	r.p.setFaulty(faulty)

	states := snapshot(cfg.Initial)
	next := make([]float64, n)
	tr := newTrace(cfg, states, faultFree)
	p := r.p

	recv := r.recv
	mask := r.mask
	var scratch core.Scratch
	adv := adversary.Writer(cfg.Adversary)
	hasAdv := adv != nil && len(p.faulty) > 0

	// frozen[i]: the update is statically undefined for node i's in-degree
	// (only possible for faulty nodes — Validate rejects it for fault-free
	// ones); the row stays the identity, matching Sequential's freeze.
	frozen := r.frozen
	for i := 0; i < n; i++ {
		frozen[i] = cfg.Rule.Validate(cfg.G.InDegree(i), cfg.F) != nil
	}

	// The program is applied (and handed to sink) before the next round
	// rebuilds it, so one rebuilt-in-place program suffices.
	pr := &r.prog
	for round := 1; round <= cfg.MaxRounds && !tr.Converged; round++ {
		p.fill(states)
		if hasAdv {
			p.applyAdversary(adv, roundView(cfg, round, states, faultFree, faulty))
		}
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
					return nil, fmt.Errorf("sim: node %d round %d: %w", i, round, err)
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
		if sink != nil {
			sink.step(pr)
		}

		if done := tr.record(cfg, round, states, faultFree); done {
			break
		}
	}
	tr.finish(states)
	return tr, nil
}
