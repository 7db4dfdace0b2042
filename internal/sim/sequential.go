package sim

import (
	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/delayed"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// Sequential is the single-goroutine reference engine. The zero value is
// ready to use.
//
// The round loop runs allocation-free in steady state: messages live on a
// flat edge-indexed plane (see edgePlane), received vectors are views into
// one preallocated buffer with sender IDs written once at setup, the rule is
// driven through UpdateInto, and the adversary scatters faulty values
// straight onto the plane through WriteMessages. Only a user rule or
// strategy without the fast method (served through core.Buffered /
// adversary.Writer at its own allocation cost) and trace growth beyond the
// preallocated window still allocate.
type Sequential struct{}

var _ Engine = Sequential{}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// Run implements Engine.
func (e Sequential) Run(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, _, err := e.newRunner(cfg.G).run(&cfg, nil)
	return tr, err
}

// newRunner builds the sequential engine's pooled runner: one edge plane
// and receive buffer, reused across scenarios.
func (Sequential) newRunner(g *graph.Graph) runner {
	p := newEdgePlane(g, false)
	return &sequentialRunner{p: p, recv: newRecvPlane(p)}
}

// sequentialRunner implements runner for Sequential. Sweep rejects Extras
// for it, so run ignores them.
type sequentialRunner struct {
	p    *edgePlane
	recv []core.ValueFrom
}

func (r *sequentialRunner) run(cfg *Config, _ [][]float64) (*Trace, [][]float64, error) {
	tr, err := runSequential(cfg, r.p, r.recv)
	if err != nil {
		return nil, nil, err
	}
	return &tr.Trace, nil, nil
}

// newRecvPlane builds the flat received-vector buffer for all nodes; the
// From fields never change across rounds, so they are written exactly once.
func newRecvPlane(p *edgePlane) []core.ValueFrom {
	recv := make([]core.ValueFrom, p.inOff[p.n])
	for e, s := range p.senders {
		recv[e].From = s
	}
	return recv
}

// runSequential is the sequential round loop over a runner's plane and
// receive buffer.
func runSequential(cfg *Config, p *edgePlane, recv []core.ValueFrom) (*tracer, error) {
	n := cfg.G.N()
	faulty := adversary.FaultSet(cfg.G, cfg.Faulty)
	faultFree := faulty.Complement()
	p.setFaulty(faulty)

	states := snapshot(cfg.Initial)
	next := make([]float64, n)

	tr := newTrace(cfg, states, faultFree)
	rule := core.Buffered(cfg.Rule)
	var scratch core.Scratch
	adv := adversary.Writer(cfg.Adversary)
	hasAdv := adv != nil && len(p.faulty) > 0
	var hist *staleRing
	if cfg.Stale != nil {
		hist = newStaleRing(cfg.Stale, states)
	}

	for round := 1; round <= cfg.MaxRounds && !tr.Converged; round++ {
		if hist != nil {
			hist.fill(p, states, faulty, round)
		} else {
			p.fill(states)
		}
		if hasAdv {
			p.applyAdversary(adv, roundView(cfg, round, states, faultFree, faulty))
		}

		for i := 0; i < n; i++ {
			lo, hi := p.inOff[i], p.inOff[i+1]
			buf := recv[lo:hi]
			for k := range buf {
				buf[k].Value = p.values[lo+k]
			}
			v, err := rule.UpdateInto(&scratch, states[i], buf, cfg.F)
			if err != nil {
				if faultFree.Contains(i) {
					return nil, err
				}
				// A faulty node's ghost update may be undefined (e.g.
				// in-degree below 2f+1); its state is meaningless anyway,
				// so freeze it rather than failing the run.
				v = states[i]
			}
			next[i] = v
		}
		states, next = next, states
		if hist != nil {
			hist.push(round, states)
		}

		if done := tr.record(cfg, round, states, faultFree); done {
			break
		}
	}
	tr.finish(states)
	return tr, nil
}

// staleRing is the bounded-staleness history of Config.Stale: slot t mod B
// holds v[t] for the last B rounds t.
type staleRing struct {
	policy delayed.StalePolicy
	slots  [][]float64
}

func newStaleRing(policy delayed.StalePolicy, initial []float64) *staleRing {
	r := &staleRing{policy: policy, slots: make([][]float64, policy.Bound())}
	for k := range r.slots {
		r.slots[k] = make([]float64, len(initial))
	}
	copy(r.slots[0], initial)
	return r
}

// fill is edgePlane.fill under staleness: each fault-free sender's edge
// carries its state d rounds before the freshest, with d asked of the policy
// in edge order and clamped to the history that exists. Faulty senders carry
// their current ghost state, which the adversary then overrides.
func (r *staleRing) fill(p *edgePlane, states []float64, faulty nodeset.Set, round int) {
	depth := min(round-1, len(r.slots)-1)
	for i := 0; i < p.n; i++ {
		for e := p.inOff[i]; e < p.inOff[i+1]; e++ {
			s := p.senders[e]
			if faulty.Contains(s) {
				p.values[e] = states[s]
				continue
			}
			d := min(max(r.policy.Staleness(s, i, round), 0), depth)
			p.values[e] = r.slots[(round-1-d)%len(r.slots)][s]
		}
	}
}

// push records v[round], overwriting v[round−B].
func (r *staleRing) push(round int, states []float64) {
	copy(r.slots[round%len(r.slots)], states)
}

// tracer accumulates a Trace incrementally; shared by all engines.
type tracer struct {
	Trace
	epsilon float64
}

// tracePrealloc caps the up-front U/µ capacity so short runs with huge
// MaxRounds don't over-allocate; runs longer than this grow amortized.
const tracePrealloc = 4096

func newTrace(cfg *Config, initial []float64, faultFree nodeset.Set) *tracer {
	lo, hi := adversary.FaultFreeRange(initial, faultFree)
	t := &tracer{epsilon: cfg.Epsilon}
	capHint := cfg.MaxRounds + 1
	if capHint > tracePrealloc {
		capHint = tracePrealloc
	}
	t.U = append(make([]float64, 0, capHint), hi)
	t.Mu = append(make([]float64, 0, capHint), lo)
	t.FaultFree = faultFree.Clone()
	t.RuleName, t.AdversaryName = names(cfg)
	if cfg.RecordStates {
		t.States = append(t.States, snapshot(initial))
	}
	if t.epsilon > 0 && hi-lo <= t.epsilon {
		t.Converged = true // already in agreement at round 0
	}
	if cfg.OnRound != nil {
		cfg.OnRound(0, hi, lo)
	}
	return t
}

// record appends round results; returns true when the epsilon stop fires.
func (t *tracer) record(cfg *Config, round int, states []float64, faultFree nodeset.Set) bool {
	lo, hi := adversary.FaultFreeRange(states, faultFree)
	t.U = append(t.U, hi)
	t.Mu = append(t.Mu, lo)
	t.Rounds = round
	if cfg.RecordStates {
		t.States = append(t.States, snapshot(states))
	}
	if cfg.OnRound != nil {
		cfg.OnRound(round, hi, lo)
	}
	if t.epsilon > 0 && hi-lo <= t.epsilon {
		t.Converged = true
		return true
	}
	return false
}

func (t *tracer) finish(states []float64) {
	t.Final = snapshot(states)
}

func snapshot(states []float64) []float64 {
	out := make([]float64, len(states))
	copy(out, states)
	return out
}
