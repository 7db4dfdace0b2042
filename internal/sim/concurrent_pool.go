package sim

import (
	"errors"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"sync"
)

// ConcurrentPool is the Concurrent engine's machinery: the n node
// goroutines, the per-edge channels, and the coordinator plumbing are
// constructed once for a graph and then reset per scenario, so a sweep pays
// the ~hundreds of goroutine/channel allocations once instead of per run
// (Concurrent.Run is a pool used for one scenario). Traces are bit-identical
// to Sequential.
//
// Channels are held in one flat slice indexed by the edgePlane's in-edge
// index, faulty transmissions travel through coordinator-owned flat send
// buffers, and the fault set is materialized once per scenario.
//
// A pool is NOT safe for concurrent use: one scenario runs at a time.
// Parallel sweeps give each worker its own pool (see Sweep). Close shuts the
// node goroutines down; it must be called exactly once, after which the pool
// is unusable.
type ConcurrentPool struct {
	g *graph.Graph
	// p supplies the edge geometry (flat in-edge indexing); its value plane
	// is unused — messages travel over channels.
	p *edgePlane
	// chans[e] is the capacity-1 channel of the in-edge with flat index e.
	chans []chan float64
	// orders[i] carries per-scenario init and per-round transmit commands.
	orders  []chan poolCmd
	reports chan nodeReport
	errs    chan error
	// sendBuf[s][k] is the value faulty sender s puts on its k-th out-edge
	// this round; allocated lazily the first time s is faulty in a scenario.
	sendBuf [][]float64
	// rule and f are the scenario's update parameters; written by the
	// coordinator before the init commands are sent (the channel send
	// publishes them to the node goroutines).
	rule core.BufferedRule
	f    int

	wg     sync.WaitGroup
	closed bool
}

var _ ScenarioRunner = (*ConcurrentPool)(nil)

// poolCmd is one instruction to a pooled node goroutine.
type poolCmd struct {
	kind     uint8   // pcInit or pcRound
	override bool    // pcRound: transmit from sendBuf instead of own state
	state    float64 // pcInit: the node's initial state
	isFaulty bool    // pcInit: whether the node is faulty this scenario
}

const (
	pcInit uint8 = iota
	pcRound
)

// nodeReport is what a node goroutine returns to the coordinator after
// completing a round.
type nodeReport struct {
	id    int
	state float64
}

// bufSink adapts one faulty sender's flat send buffer to adversary.EdgeSink:
// the coordinator points it at sendBuf[s] and the strategy scatters into it.
type bufSink struct {
	buf []float64
}

// Send implements adversary.EdgeSink.
func (s *bufSink) Send(k int, value float64) { s.buf[k] = value }

// NewConcurrentPool builds the pool and starts its node goroutines.
func NewConcurrentPool(g *graph.Graph) *ConcurrentPool {
	n := g.N()
	p := newEdgePlane(g, nodeset.New(n), false)
	pl := &ConcurrentPool{
		g:       g,
		p:       p,
		chans:   make([]chan float64, p.inOff[n]),
		orders:  make([]chan poolCmd, n),
		reports: make(chan nodeReport, n),
		errs:    make(chan error, n),
		sendBuf: make([][]float64, n),
	}
	for e := range pl.chans {
		pl.chans[e] = make(chan float64, 1)
	}
	for i := range pl.orders {
		pl.orders[i] = make(chan poolCmd, 1)
	}
	pl.wg.Add(n)
	for i := 0; i < n; i++ {
		go pl.node(i)
	}
	return pl
}

// node is the long-lived goroutine for node i: the three-phase round
// protocol (transmit, receive, update), looping across scenarios until
// Close.
func (pl *ConcurrentPool) node(i int) {
	defer pl.wg.Done()
	ins := pl.g.InView(i)
	outs := pl.g.OutView(i)
	outChans := make([]chan<- float64, len(outs))
	for k := range outs {
		outChans[k] = pl.chans[pl.p.edgeOf[i][k]]
	}
	inChans := pl.chans[pl.p.inOff[i]:pl.p.inOff[i+1]]
	recv := make([]core.ValueFrom, len(ins))
	for k, from := range ins {
		recv[k].From = from
	}
	var (
		state    float64
		isFaulty bool
		rule     core.BufferedRule
		f        int
		scratch  core.Scratch
	)
	for cmd := range pl.orders[i] {
		if cmd.kind == pcInit {
			state = cmd.state
			isFaulty = cmd.isFaulty
			// The init send happens-after the coordinator's writes, so the
			// shared rule/f fields are safely published here.
			rule = pl.rule
			f = pl.f
			continue
		}
		// Phase 1: transmit on every outgoing edge.
		override := pl.sendBuf[i]
		for k := range outChans {
			v := state
			if cmd.override {
				v = override[k]
			}
			outChans[k] <- v
		}
		// Phase 2: receive one value per incoming edge, in in-neighbor
		// order (deterministic).
		for k := range inChans {
			recv[k].Value = <-inChans[k]
		}
		// Phase 3: apply the update rule (ghost update for faulty nodes
		// too — see package adversary).
		v, err := rule.UpdateInto(&scratch, state, recv, f)
		switch {
		case err == nil:
			state = v
			pl.reports <- nodeReport{id: i, state: state}
		case isFaulty:
			// Ghost update undefined: freeze the ghost state, mirroring
			// Sequential.
			pl.reports <- nodeReport{id: i, state: state}
		default:
			// The goroutine must survive for the next scenario, so report
			// the error and stay in the loop with the state frozen.
			pl.errs <- err
		}
	}
}

// RunScenario implements ScenarioRunner: reset the pool to cfg and run the
// coordinator loop.
func (pl *ConcurrentPool) RunScenario(cfg *Config) (*Trace, error) {
	if pl.closed {
		return nil, errors.New("sim: ConcurrentPool is closed")
	}
	if cfg.G != pl.g {
		return nil, errors.New("sim: scenario config graph differs from the pool's graph")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return pl.run(cfg)
}

// run is the coordinator loop for one validated config over the pool's
// graph.
func (pl *ConcurrentPool) run(cfg *Config) (*Trace, error) {
	n := pl.g.N()
	faulty := cfg.faulty()
	faultFree := faulty.Complement()

	states := snapshot(cfg.Initial)
	tr := newTrace(cfg, states, faultFree)
	pl.p.setFaulty(faulty)
	for _, s := range pl.p.faulty {
		if pl.sendBuf[s] == nil {
			pl.sendBuf[s] = make([]float64, pl.g.OutDegree(s))
		}
	}
	pl.rule, pl.f = core.Buffered(cfg.Rule), cfg.F
	for i := 0; i < n; i++ {
		pl.orders[i] <- poolCmd{kind: pcInit, state: states[i], isFaulty: faulty.Contains(i)}
	}

	adv := adversary.Writer(cfg.Adversary)
	hasAdv := adv != nil && len(pl.p.faulty) > 0
	var sink bufSink

	var runErr error
	for round := 1; round <= cfg.MaxRounds && !tr.Converged; round++ {
		if hasAdv {
			view := roundView(cfg, round, states, faultFree, faulty)
			for _, s := range pl.p.faulty {
				// Substitute ghost state for omitted receivers so every edge
				// carries a value (matching Sequential's semantics): prefill
				// the ghost, then let the strategy overwrite.
				for k := range pl.sendBuf[s] {
					pl.sendBuf[s][k] = states[s]
				}
				sink.buf = pl.sendBuf[s]
				adv.WriteMessages(view, s, &sink)
			}
		}
		for i := 0; i < n; i++ {
			pl.orders[i] <- poolCmd{kind: pcRound, override: hasAdv && faulty.Contains(i)}
		}
		for done := 0; done < n; done++ {
			select {
			case rep := <-pl.reports:
				states[rep.id] = rep.state
			case err := <-pl.errs:
				runErr = err
			}
		}
		if runErr != nil {
			break
		}
		if stop := tr.record(cfg, round, states, faultFree); stop {
			break
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	tr.finish(states)
	return &tr.Trace, nil
}

// Close shuts down the node goroutines and waits for them to exit.
func (pl *ConcurrentPool) Close() {
	if pl.closed {
		return
	}
	pl.closed = true
	for i := range pl.orders {
		close(pl.orders[i])
	}
	pl.wg.Wait()
}
