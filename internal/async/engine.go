package async

import (
	"context"
	"errors"
	"fmt"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/quorum"
)

// Config describes one asynchronous run.
type Config struct {
	// G is the communication graph.
	G *graph.Graph
	// F is the fault-tolerance parameter.
	F int
	// Faulty is the actual fault set (|Faulty| ≤ F for guarantees).
	Faulty nodeset.Set
	// Initial holds v_i[0], length G.N().
	Initial []float64
	// Rule is the update rule; core.TrimmedMean realizes the Section 7
	// algorithm when fed the |N⁻_i|−F quorum vector.
	Rule core.UpdateRule
	// Adversary decides faulty transmissions; omitted receivers genuinely
	// receive nothing (unlike the synchronous engine). May be nil iff
	// Faulty is empty.
	Adversary adversary.Strategy
	// Delays assigns per-message delays. Required.
	Delays DelayPolicy
	// MaxRounds caps every node's round counter.
	MaxRounds int
	// Epsilon, when > 0, stops once the fault-free range is ≤ Epsilon.
	Epsilon float64
	// OnRange, when non-nil, is invoked after every fault-free state change
	// with the simulation time and the fault-free range — the run's range
	// series, streamed rather than retained. It runs on the event loop, so
	// it must be fast and must not block.
	OnRange func(time, rng float64)
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	in := adversary.Instance{G: c.G, F: c.F, Faulty: c.Faulty, Initial: c.Initial, Rule: c.Rule, Adversary: c.Adversary, MaxRounds: c.MaxRounds}
	if err := in.Validate(func(inDegree int) int { return quorum.Count(inDegree, c.F) }); err != nil {
		return fmt.Errorf("async: %w", err)
	}
	if c.Delays == nil {
		return errors.New("async: nil delay policy")
	}
	return nil
}

// Trace records an asynchronous run.
type Trace struct {
	// Converged reports whether the Epsilon stop fired.
	Converged bool
	// Stalled is true if the event queue drained while some fault-free node
	// had not reached MaxRounds and Epsilon had not fired — progress
	// starvation (e.g. more than F silent faulty in-neighbors).
	Stalled bool
	// Time is the simulation time at which the run ended.
	Time float64
	// Deliveries counts messages delivered.
	Deliveries int
	// Rounds[i] is node i's final round counter.
	Rounds []int
	// Final is the final state vector (faulty entries are their initial
	// values — the engine does not model faulty internal state).
	Final []float64
	// InitialRange is U[0] − µ[0] over fault-free nodes.
	InitialRange float64
}

// MinRound returns the smallest round counter among fault-free nodes.
func (t *Trace) MinRound(faultFree nodeset.Set) int { return quorum.MinRound(t.Rounds, faultFree) }

// event kinds.
const (
	evArrival = iota // a message reaches its receiver
	evEmit           // a faulty node emits its next round batch
)

// faultyTick is the simulation-time interval between a faulty node's round
// batches: faulty nodes are not bound by the protocol, so they emit on a
// clock of their own.
const faultyTick = 1.0

type event struct {
	at   float64
	seq  int64 // FIFO tie-break for determinism
	kind int

	from, to int
	round    int
	value    float64
}

// cancelCheckEvery is the event-batch granularity of Run's cancellation
// checks: ctx.Err() is consulted once per this many popped events, keeping
// the per-event cost of cancellation support at one counter increment.
const cancelCheckEvery = 256

// Run executes the asynchronous simulation to completion.
//
// The pending-event set lives in a bucketed calendar queue (see
// calendarQueue): O(1) amortized push/pop and no per-event allocation, with
// the delivery order — earliest time first, FIFO among ties — pinned
// identical to the container/heap reference by the differential suite.
//
// ctx is checked at event-batch granularity (every cancelCheckEvery popped
// events), so cancellation returns promptly without taxing the per-event
// hot path. On cancellation the error wraps ctx.Err() together with the
// simulation time reached and the deliveries processed.
func Run(ctx context.Context, cfg Config) (*Trace, error) {
	return runOnQueue(ctx, cfg, newCalendarQueue())
}

// runOnQueue is Run over an explicit event queue — the seam the
// calendar-vs-heap conformance tests replay identical configurations
// through.
func runOnQueue(ctx context.Context, cfg Config, q eventPQ) (*Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.G.N()
	faulty := adversary.FaultSet(cfg.G, cfg.Faulty)
	l := &loop{
		cfg:       &cfg,
		q:         q,
		faultFree: faulty.Complement(),
		states:    make([]float64, n),
		rounds:    make([]int, n),
	}
	copy(l.states, cfg.Initial)
	lo, hi := adversary.FaultFreeRange(l.states, l.faultFree)
	tr := &Trace{
		Rounds:       l.rounds,
		InitialRange: hi - lo,
	}
	l.tr = tr

	// One Section 7 actor per fault-free node (faulty receivers discard),
	// the same type the live node actors drive; one adversary emitter per
	// faulty node. Kick-off at t = 0: every actor broadcasts its round-0
	// state, and every emitter gets its first emit event.
	rule := core.Buffered(cfg.Rule)
	steps := make([]*quorum.Stepper, n)
	l.faultFree.ForEach(func(i int) bool {
		steps[i] = quorum.NewStepper(cfg.G.InView(i), cfg.G.OutView(i), quorum.Count(cfg.G.InDegree(i), cfg.F),
			cfg.F, cfg.MaxRounds, rule, l.states[i], l)
		l.node = i
		steps[i].Start()
		return true
	})
	adv := adversary.Writer(cfg.Adversary)
	emitters := make([]*quorum.Emitter, n)
	faulty.ForEach(func(s int) bool {
		emitters[s] = quorum.NewEmitter(s, cfg.G, cfg.F, faulty, l.faultFree, cfg.MaxRounds, adv, l)
		l.push(event{at: 0, kind: evEmit, from: s})
		return true
	})

	var runErr error
	var popped int
	for q.len() > 0 && !tr.Converged && runErr == nil {
		if popped%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("async: run canceled at t=%.6g after %d deliveries: %w",
				tr.Time, tr.Deliveries, context.Cause(ctx))
		}
		popped++
		e, _ := q.pop()
		tr.Time, l.now = e.at, e.at
		switch e.kind {
		case evEmit:
			l.node = e.from
			if emitters[e.from].Emit(l.states) {
				l.push(event{at: e.at + faultyTick, kind: evEmit, from: e.from})
			}

		case evArrival:
			tr.Deliveries++
			st := steps[e.to]
			if st == nil {
				// Faulty receivers discard; their behavior is the
				// adversary's, not the protocol's.
				continue
			}
			l.node = e.to
			if err := st.Deliver(e.from, e.round, e.value); err != nil {
				runErr = fmt.Errorf("async: node %d round %d: %w", e.to, st.Round(), err)
			}
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if !tr.Converged && tr.MinRound(l.faultFree) < cfg.MaxRounds {
		tr.Stalled = true
	}
	tr.Final = l.states
	return tr, nil
}

// loop is one run's event-loop state and the quorum.Outbox of every actor
// and emitter in it: node and now name the node whose input is being
// processed and the simulation time of that input.
type loop struct {
	cfg       *Config
	q         eventPQ
	seq       int64
	node      int
	now       float64
	faultFree nodeset.Set
	states    []float64
	rounds    []int
	tr        *Trace
}

func (l *loop) push(e event) {
	e.seq = l.seq
	l.seq++
	l.q.push(e)
}

// Send implements quorum.Outbox: the message on the current node's k-th
// out-edge arrives after the delay policy's delay. Epochs play no part in a
// loss-free simulation.
func (l *loop) Send(k, round int, value float64, _ int) {
	to := l.cfg.G.OutView(l.node)[k]
	l.push(event{
		at:    l.now + l.cfg.Delays.Delay(l.node, to, round),
		kind:  evArrival,
		from:  l.node,
		to:    to,
		round: round,
		value: value,
	})
}

// Ask implements quorum.Outbox as a no-op. The simulator loses nothing:
// every value an actor would ask for is already on the queue, so a gap its
// delay policy's reordering opens closes by itself and an answer would only
// arrive as a duplicate. Asks therefore leave a trace unchanged.
func (l *loop) Ask(int, int, int) {}

// Advanced implements quorum.Outbox: it publishes the current node's new
// state and streams the range to OnRange, stopping the node once Epsilon
// fires.
func (l *loop) Advanced(round int, v float64) bool {
	l.states[l.node], l.rounds[l.node] = v, round
	lo, hi := adversary.FaultFreeRange(l.states, l.faultFree)
	if l.cfg.OnRange != nil {
		l.cfg.OnRange(l.now, hi-lo)
	}
	if l.cfg.Epsilon > 0 && hi-lo <= l.cfg.Epsilon {
		l.tr.Converged = true
		return false
	}
	return true
}
