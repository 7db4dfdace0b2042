package async

import (
	"context"
	"errors"
	"fmt"
	"math"

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
	// FaultyTick is the interval at which faulty nodes emit their round-k
	// message batches (they are not bound by the protocol; a tick of 0
	// defaults to 1.0).
	FaultyTick float64
	// HistoryEvery decimates Trace.History for long runs: when > 1 only
	// every k-th state change is recorded (the initial point, the
	// convergence-triggering change, and the final change are always kept),
	// bounding history memory at roughly changes/k points instead of one
	// point per state change. 0 or 1 records every change — the default,
	// preserving the full-resolution behavior for short runs.
	HistoryEvery int
	// OnRange, when non-nil, is invoked after every fault-free state change
	// with the simulation time and the fault-free range — streaming progress
	// independent of (and undecimated by) HistoryEvery. It runs on the event
	// loop, so it must be fast and must not block.
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
	if c.HistoryEvery < 0 {
		return fmt.Errorf("async: negative HistoryEvery %d", c.HistoryEvery)
	}
	return nil
}

func (c *Config) faulty() nodeset.Set { return adversary.FaultSet(c.G, c.Faulty) }

// RangePoint samples the fault-free range at a simulation time.
type RangePoint struct {
	Time  float64
	Range float64
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
	// History samples the fault-free range after state changes: every
	// change by default, every k-th (plus the final one) under
	// Config.HistoryEvery decimation.
	History []RangePoint
	// InitialRange is U[0] − µ[0] over fault-free nodes.
	InitialRange float64
}

// MinRound returns the smallest round counter among fault-free nodes.
func (t *Trace) MinRound(faultFree nodeset.Set) int {
	min := math.MaxInt
	faultFree.ForEach(func(i int) bool {
		if t.Rounds[i] < min {
			min = t.Rounds[i]
		}
		return true
	})
	return min
}

// event kinds.
const (
	evArrival = iota // a message reaches its receiver
	evEmit           // a faulty node emits its round-k batch
)

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
	faulty := cfg.faulty()
	faultFree := faulty.Complement()
	tick := cfg.FaultyTick
	if tick == 0 {
		tick = 1.0
	}

	states := make([]float64, n)
	copy(states, cfg.Initial)
	rounds := make([]int, n)
	// One Section 7 stepper per fault-free receiver (faulty receivers
	// discard): the same type the real node actors drive, waiting for
	// |N⁻_i| − F round-t values before each update.
	rule := core.Buffered(cfg.Rule)
	steps := make([]*quorum.Stepper, n)
	faultFree.ForEach(func(i int) bool {
		steps[i] = quorum.NewStepper(cfg.G.InView(i), quorum.Count(cfg.G.InDegree(i), cfg.F),
			cfg.F, cfg.MaxRounds, rule, states[i])
		return true
	})

	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		q.push(e)
	}

	// send schedules the arrival of one round-tagged message.
	send := func(now float64, from, to, round int, value float64) {
		push(event{
			at:    now + cfg.Delays.Delay(from, to, round),
			kind:  evArrival,
			from:  from,
			to:    to,
			round: round,
			value: value,
		})
	}
	// Faulty emissions scatter through one reused sink.
	adv := adversary.Writer(cfg.Adversary)
	esink := emitSink{send: send}

	lo, hi := adversary.FaultFreeRange(states, faultFree)
	tr := &Trace{
		Rounds:       rounds,
		InitialRange: hi - lo,
		History:      []RangePoint{{Time: 0, Range: hi - lo}},
	}

	// Kick-off: fault-free nodes broadcast their round-0 state; faulty nodes
	// get an emit event per tick.
	faultFree.ForEach(func(i int) bool {
		for _, to := range cfg.G.OutNeighbors(i) {
			send(0, i, to, 0, states[i])
		}
		return true
	})
	faulty.ForEach(func(s int) bool {
		push(event{at: 0, kind: evEmit, from: s, round: 0})
		return true
	})

	// History decimation: with HistoryEvery = k > 1, only every k-th state
	// change is appended; the last skipped point is kept pending so the
	// history always ends at the final state change regardless of k.
	histEvery := cfg.HistoryEvery
	if histEvery < 1 {
		histEvery = 1
	}
	var (
		changes    int
		pending    RangePoint
		pendingSet bool
	)
	recordRange := func(now float64) bool {
		lo, hi := adversary.FaultFreeRange(states, faultFree)
		pt := RangePoint{Time: now, Range: hi - lo}
		if cfg.OnRange != nil {
			cfg.OnRange(pt.Time, pt.Range)
		}
		converged := cfg.Epsilon > 0 && pt.Range <= cfg.Epsilon
		if changes%histEvery == 0 || converged {
			tr.History = append(tr.History, pt)
			pendingSet = false
		} else {
			pending, pendingSet = pt, true
		}
		changes++
		if converged {
			tr.Converged = true
			return true
		}
		return false
	}

	// e is the event being processed. advanced is what a completed round
	// triggers at e's receiver: publish the new state, broadcast it, and
	// sample the range — stopping the node's advance once Epsilon fires.
	var e event
	advanced := func(round int, v float64) bool {
		i := e.to
		states[i], rounds[i] = v, round
		for _, to := range cfg.G.OutView(i) {
			send(e.at, i, to, round, v)
		}
		return !recordRange(e.at)
	}

	var runErr error
	var popped int
	for q.len() > 0 && !tr.Converged && runErr == nil {
		if popped%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("async: run canceled at t=%.6g after %d deliveries: %w",
				tr.Time, tr.Deliveries, context.Cause(ctx))
		}
		popped++
		e, _ = q.pop()
		tr.Time = e.at
		switch e.kind {
		case evEmit:
			emitFaulty(&cfg, e, states, faultFree, adv, &esink)
			if e.round+1 <= cfg.MaxRounds {
				push(event{at: e.at + tick, kind: evEmit, from: e.from, round: e.round + 1})
			}

		case evArrival:
			tr.Deliveries++
			st := steps[e.to]
			if st == nil {
				// Faulty receivers discard; their behavior is the
				// adversary's, not the protocol's.
				continue
			}
			if err := st.Deliver(e.from, e.round, e.value, advanced); err != nil {
				runErr = fmt.Errorf("async: node %d round %d: %w", e.to, st.Round(), err)
			}
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if pendingSet {
		// The run ended between decimation samples: append the final state
		// change so History's last point matches the undecimated run's.
		tr.History = append(tr.History, pending)
	}

	if !tr.Converged && tr.MinRound(faultFree) < cfg.MaxRounds {
		tr.Stalled = true
	}
	tr.Final = states
	return tr, nil
}

// emitSink adapts the event-queue send to adversary.EdgeSink for one faulty
// emission at a time: each Send schedules the arrival on the sender's k-th
// out-edge. Edges the strategy skips get no event — asynchronous silence.
type emitSink struct {
	send  func(now float64, from, to, round int, value float64)
	outs  []int
	now   float64
	from  int
	round int
}

// Send implements adversary.EdgeSink.
func (s *emitSink) Send(k int, value float64) {
	s.send(s.now, s.from, s.outs[k], s.round, value)
}

// emitFaulty schedules one faulty node's round-k batch according to the
// adversary strategy.
func emitFaulty(cfg *Config, e event, states []float64, faultFree nodeset.Set, adv adversary.EdgeWriter, esink *emitSink) {
	lo, hi := adversary.FaultFreeRange(states, faultFree)
	view := adversary.RoundView{
		Round:  e.round,
		G:      cfg.G,
		F:      cfg.F,
		Faulty: cfg.faulty(),
		States: states,
		Lo:     lo,
		Hi:     hi,
	}
	esink.outs = cfg.G.OutView(e.from)
	esink.now, esink.from, esink.round = e.at, e.from, e.round
	adv.WriteMessages(view, e.from, esink)
}
