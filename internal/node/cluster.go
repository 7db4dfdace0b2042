package node

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/transport"
)

// updateMsg reports one fault-free state change to the runner.
type updateMsg struct {
	node, round int
	value       float64
}

// runner owns the cross-actor state of one cluster run: the authoritative
// state vector (fed by actor updates, read by adversary snapshots), the
// stop conditions, and the robustness counters.
type runner struct {
	cfg       Config
	faulty    nodeset.Set
	faultFree nodeset.Set
	// rule and adv are cfg.Rule and cfg.Adversary normalised to the seams
	// the actors and faulty emitters drive.
	rule  core.BufferedRule
	adv   adversary.EdgeWriter
	start time.Time

	mu     sync.Mutex
	states []float64
	rounds []int

	updates chan updateMsg
	errc    chan error

	deliveries, updatesN, resends, abandoned, outDropped, restarts atomic.Int64
}

// fail records the first actor error; later errors are dropped.
func (r *runner) fail(err error) {
	select {
	case r.errc <- err:
	default:
	}
}

// apply commits one state change and returns the fault-free range after it.
func (r *runner) apply(u updateMsg) float64 {
	r.mu.Lock()
	r.states[u.node] = u.value
	r.rounds[u.node] = u.round
	lo, hi := adversary.FaultFreeRange(r.states, r.faultFree)
	r.mu.Unlock()
	r.updatesN.Add(1)
	return hi - lo
}

// snapshot copies the state vector into buf, the omniscient view a faulty
// emission sees at emission time.
func (r *runner) snapshot(buf []float64) []float64 {
	r.mu.Lock()
	copy(buf, r.states)
	r.mu.Unlock()
	return buf
}

// supervise runs one fault-free actor through its crash schedule: run until
// the next window opens, hold it down for the window, then restart it from
// its durable state with a reset inbox. A window that never closes leaves
// the node down for the rest of the run.
func (r *runner) supervise(ctx context.Context, a *actor, crashes []transport.Crash) {
	for _, cr := range crashes {
		if until := r.start.Add(cr.From); time.Until(until) > 0 {
			if !r.incarnation(ctx, a, until) {
				return
			}
		}
		if cr.Until <= 0 {
			return // crashed for good
		}
		if !sleepUntil(ctx, r.start.Add(cr.Until)) {
			return
		}
		// Restart: durable (round, value, history) survives; the volatile
		// inbox is lost, and peer resends re-fill it.
		a.step.Crash()
		r.restarts.Add(1)
	}
	r.incarnation(ctx, a, time.Time{})
}

// incarnation runs the actor loop until the deadline (zero = none) or ctx,
// and reports whether the parent ctx is still live.
func (r *runner) incarnation(ctx context.Context, a *actor, deadline time.Time) bool {
	ictx := ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ictx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	a.run(ictx)
	return ctx.Err() == nil
}

// sleepUntil blocks until t or ctx, reporting whether ctx is still live.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Run executes one cluster to completion: every fault-free node as a live
// actor over cfg.Transport, every faulty node driven by cfg.Adversary. It
// returns when the Epsilon stop fires, every fault-free node reaches
// MaxRounds, the StallAfter liveness cutoff fires, an actor fails, or ctx
// is canceled (wrapping context.Cause(ctx)). On return no goroutine started
// by Run is still alive; the transport is left open for the caller.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.G.N()
	faulty := adversary.FaultSet(cfg.G, cfg.Faulty)
	faultFree := faulty.Complement()
	// The nodes this process animates: everything by default, cfg.Local's
	// share in a cross-process deployment.
	local := nodeset.Universe(n)
	if len(cfg.Local) > 0 {
		local = nodeset.FromMembers(n, cfg.Local...)
	}
	localFaultFree := faultFree.Intersect(local)

	r := &runner{
		cfg:       cfg,
		faulty:    faulty,
		faultFree: faultFree,
		rule:      core.Buffered(cfg.Rule),
		adv:       adversary.Writer(cfg.Adversary),
		start:     time.Now(),
		states:    make([]float64, n),
		rounds:    make([]int, n),
		updates:   make(chan updateMsg, 64*n),
		errc:      make(chan error, 1),
	}
	copy(r.states, cfg.Initial)
	lo, hi := adversary.FaultFreeRange(r.states, faultFree)

	// Crash schedules per local fault-free node, ordered by window start.
	crashByNode := make(map[int][]transport.Crash)
	for _, cr := range cfg.Crashes {
		if localFaultFree.Contains(cr.Node) {
			crashByNode[cr.Node] = append(crashByNode[cr.Node], cr)
		}
	}
	for _, crs := range crashByNode {
		sort.Slice(crs, func(i, j int) bool { return crs[i].From < crs[j].From })
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	localFaultFree.ForEach(func(i int) bool {
		a := newActor(i, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.supervise(runCtx, a, crashByNode[i])
		}()
		return true
	})
	faulty.Intersect(local).ForEach(func(s int) bool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runFaulty(runCtx, s)
		}()
		return true
	})
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	res := &Result{InitialRange: hi - lo}
	var stallC <-chan time.Time
	var stallTimer *time.Timer
	if cfg.StallAfter > 0 {
		stallTimer = time.NewTimer(cfg.StallAfter)
		defer stallTimer.Stop()
		stallC = stallTimer.C
	}

	onUpdate := func(u updateMsg) float64 {
		rng := r.apply(u)
		if cfg.OnUpdate != nil {
			cfg.OnUpdate(u.node, u.round, u.value, rng)
		}
		return rng
	}

	target := localFaultFree.Count()
	atMax := 0
	var runErr error
	var lingerTimer *time.Timer
	var lingerC <-chan time.Time
	finishing := false
	// finish ends the run's local work: liveness judging stops (no further
	// local progress is owed), and the actors either exit now or linger —
	// still draining deliveries and serving history resends — so remote
	// laggards in a cross-process deployment can finish before this
	// process's exit starts looking like a crash to them.
	finish := func() {
		if finishing {
			return
		}
		finishing = true
		if stallTimer != nil {
			stallTimer.Stop()
			stallC = nil
		}
		if cfg.Linger > 0 {
			lingerTimer = time.NewTimer(cfg.Linger)
			lingerC = lingerTimer.C
			return
		}
		cancel()
	}
	defer func() {
		if lingerTimer != nil {
			lingerTimer.Stop()
		}
	}()
	if target == 0 {
		finish() // no local fault-free work: run is just linger + faulty emitters
	}
loop:
	for {
		select {
		case u := <-r.updates:
			rng := onUpdate(u)
			if u.round == cfg.MaxRounds {
				atMax++
			}
			if cfg.Epsilon > 0 && rng <= cfg.Epsilon {
				res.Converged = true
				finish()
			} else if atMax == target {
				finish()
			}
			if stallTimer != nil && !finishing {
				if !stallTimer.Stop() {
					select {
					case <-stallTimer.C:
					default:
					}
				}
				stallTimer.Reset(cfg.StallAfter)
			}
		case err := <-r.errc:
			runErr = err
			cancel()
		case <-stallC:
			res.Stalled = true
			cancel()
		case <-lingerC:
			cancel()
		case <-done:
			break loop
		}
	}
	// All actors have exited; drain updates that raced the shutdown so the
	// result reflects every state change that was committed.
	for {
		select {
		case u := <-r.updates:
			rng := onUpdate(u)
			if !res.Converged && cfg.Epsilon > 0 && rng <= cfg.Epsilon {
				res.Converged = true
			}
		default:
			goto drained
		}
	}
drained:
	if runErr == nil {
		select {
		case runErr = <-r.errc:
		default:
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil && !res.Converged {
		return nil, fmt.Errorf("node: cluster canceled after %d updates: %w",
			r.updatesN.Load(), context.Cause(ctx))
	}

	res.Rounds = r.rounds
	res.Final = r.states
	lo, hi = adversary.FaultFreeRange(r.states, faultFree)
	res.FinalRange = hi - lo
	res.Elapsed = time.Since(r.start)
	res.Deliveries = r.deliveries.Load()
	res.Updates = r.updatesN.Load()
	res.Resends = r.resends.Load()
	res.Abandoned = r.abandoned.Load()
	res.OutDropped = r.outDropped.Load()
	res.Restarts = r.restarts.Load()
	return res, nil
}
