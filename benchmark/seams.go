package main

// Seams: benchmark-owned wrappers passed through the facade's existing
// options (WithRule, WithAdversary, WithDelays, WithTransport, WithBackend,
// WithObserver) so that the traced pass can attribute an op's time to layers
// from outside the program. Each wrapper aggregates a call count and a summed
// busy time per op — one child span per layer per op, not one record per
// call — and keeps the fast path its inner value has (BufferedRule,
// EdgeWriter), so the traced pass runs the same code the untraced pass does.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"iabc"
	"iabc/internal/adversary"
	"iabc/internal/core"
)

// layerCounter is one layer's aggregate over one op.
type layerCounter struct {
	calls  atomic.Int64
	busyNs atomic.Int64
	errs   atomic.Int64
}

func (c *layerCounter) observe(start time.Time) {
	c.busyNs.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

// seams holds the per-op aggregates of every wrapper handed out for one op.
type seams struct {
	ruleC, advC, delayC, sendC layerCounter

	store struct {
		sync.Mutex
		writes, reads int64
		bytes         int64
		busyNs        int64
		sizes         []int // bytes of each write, in order
	}

	chaos *iabc.ChaosTransport // set by buildTransport on the chaos workload

	// capture, when set, makes the rule seam keep a sample of its inputs for
	// the rule drive. Only the one capture op of a pass sets it; that op is
	// not measured.
	capture *ruleCapture

	// roundGapsNs are the intervals between advances of the fault-free
	// minimum round, stamped by the observer seam.
	roundGapsNs []int64
}

// —— rule ——

type ruleSeam struct {
	inner   core.BufferedRule
	c       *layerCounter
	capture *ruleCapture
}

var _ core.BufferedRule = (*ruleSeam)(nil)

func (s *seams) rule(inner core.BufferedRule) iabc.UpdateRule {
	return &ruleSeam{inner, &s.ruleC, s.capture}
}

// ruleSample is one real input of the update rule.
type ruleSample struct {
	own      float64
	received []core.ValueFrom
	f        int
}

// ruleCapture keeps about one in every inputs the rule seam sees, drawn at
// random: a fixed stride would resonate with the node order of a round and
// sample some in-degrees more than others.
type ruleCapture struct {
	mu      sync.Mutex
	every   uint64
	state   uint64 // xorshift64, seeded by the caller
	samples []ruleSample
}

func (rc *ruleCapture) take(own float64, received []core.ValueFrom, f int) {
	rc.mu.Lock()
	rc.state ^= rc.state << 13
	rc.state ^= rc.state >> 7
	rc.state ^= rc.state << 17
	if rc.state%rc.every == 0 {
		rc.samples = append(rc.samples, ruleSample{own, append([]core.ValueFrom(nil), received...), f})
	}
	rc.mu.Unlock()
}

func (r *ruleSeam) Name() string                   { return r.inner.Name() }
func (r *ruleSeam) Validate(inDegree, f int) error { return r.inner.Validate(inDegree, f) }

func (r *ruleSeam) Update(own float64, received []core.ValueFrom, f int) (float64, error) {
	defer r.c.observe(time.Now())
	return r.inner.Update(own, received, f)
}

func (r *ruleSeam) UpdateInto(sc *core.Scratch, own float64, received []core.ValueFrom, f int) (float64, error) {
	if r.capture != nil {
		r.capture.take(own, received, f)
	}
	start := time.Now()
	v, err := r.inner.UpdateInto(sc, own, received, f)
	r.c.observe(start)
	return v, err
}

// —— adversary ——

type advSeam struct {
	inner adversary.EdgeWriter
	c     *layerCounter
}

var _ adversary.EdgeWriter = (*advSeam)(nil)

// adversary wraps a built-in strategy; every built-in is an EdgeWriter.
func (s *seams) adversary(inner iabc.Strategy) iabc.Strategy {
	return &advSeam{inner.(adversary.EdgeWriter), &s.advC}
}

func (a *advSeam) Name() string { return a.inner.Name() }

func (a *advSeam) Messages(view adversary.RoundView, sender int) map[int]float64 {
	defer a.c.observe(time.Now())
	return a.inner.Messages(view, sender)
}

func (a *advSeam) WriteMessages(view adversary.RoundView, sender int, w adversary.EdgeSink) {
	start := time.Now()
	a.inner.WriteMessages(view, sender, w)
	a.c.observe(start)
}

// —— async delay policy ——

type delaySeam struct {
	inner iabc.DelayPolicy
	c     *layerCounter
}

func (s *seams) delays(inner iabc.DelayPolicy) iabc.DelayPolicy { return &delaySeam{inner, &s.delayC} }

func (d *delaySeam) Name() string { return d.inner.Name() }

func (d *delaySeam) Delay(from, to, round int) float64 {
	start := time.Now()
	v := d.inner.Delay(from, to, round)
	d.c.observe(start)
	return v
}

// —— transport ——

type transportSeam struct {
	inner iabc.Transport
	c     *layerCounter
}

var _ iabc.Transport = (*transportSeam)(nil)

func (t *transportSeam) Send(ctx context.Context, from, to int, m iabc.Msg) error {
	start := time.Now()
	err := t.inner.Send(ctx, from, to, m)
	t.c.observe(start)
	if err != nil {
		t.c.errs.Add(1)
	}
	return err
}

func (t *transportSeam) Recv(node int) <-chan iabc.Delivery { return t.inner.Recv(node) }
func (t *transportSeam) Close() error                       { return t.inner.Close() }

// buildTransport builds the transport stack the untraced op gets from the
// facade — Inproc, TCP on a fresh listener, or Chaos over Inproc — and wraps
// it. The caller closes it.
func (s *seams) buildTransport(w *clusterInst, i int) (iabc.Transport, error) {
	var inner iabc.Transport
	switch w.kind {
	case overTCP:
		cfg, err := tcpConfig(clusterN)
		if err != nil {
			return nil, err
		}
		wire, err := iabc.NewTCPTransport(cfg)
		if err != nil {
			return nil, err
		}
		inner = wire
	case overChaos:
		s.chaos = iabc.NewChaosTransport(iabc.NewInprocTransport(clusterN, 0), w.chaosConfig(i))
		inner = s.chaos
	default:
		inner = iabc.NewInprocTransport(clusterN, 0)
	}
	return &transportSeam{inner, &s.sendC}, nil
}

// —— state backend ——

type backendSeam struct {
	inner iabc.StateBackend
	s     *seams
}

var _ iabc.StateBackend = (*backendSeam)(nil)

func (s *seams) backend(inner iabc.StateBackend) iabc.StateBackend { return &backendSeam{inner, s} }

func (b *backendSeam) account(start time.Time, write bool, n int) {
	d := int64(time.Since(start))
	st := &b.s.store
	st.Lock()
	st.busyNs += d
	if write {
		st.writes++
		st.bytes += int64(n)
		st.sizes = append(st.sizes, n)
	} else {
		st.reads++
	}
	st.Unlock()
}

func (b *backendSeam) Read(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	v, err := b.inner.Read(ctx, key)
	b.account(start, false, 0)
	return v, err
}

func (b *backendSeam) Write(ctx context.Context, key string, value []byte) error {
	start := time.Now()
	err := b.inner.Write(ctx, key, value)
	b.account(start, true, len(value))
	return err
}

func (b *backendSeam) Delete(ctx context.Context, key string) error {
	return b.inner.Delete(ctx, key)
}

func (b *backendSeam) List(ctx context.Context, prefix string) ([]string, error) {
	start := time.Now()
	v, err := b.inner.List(ctx, prefix)
	b.account(start, false, 0)
	return v, err
}

// —— observer ——

// observer stamps every advance of the fault-free minimum round. The facade
// serializes observer calls, so no lock is needed.
func (s *seams) observer(faultFree iabc.Set) iabc.Observer {
	rounds := make([]int, faultFree.Cap())
	min, last := 0, time.Now()
	return func(e iabc.Event) {
		if e.Kind != iabc.EventNodeUpdate {
			return
		}
		rounds[e.Node] = e.Round
		if e.Round <= min {
			return
		}
		lowest := e.Round
		faultFree.ForEach(func(i int) bool {
			if rounds[i] < lowest {
				lowest = rounds[i]
			}
			return true
		})
		if lowest > min {
			now := time.Now()
			s.roundGapsNs = append(s.roundGapsNs, int64(now.Sub(last))/int64(lowest-min))
			min, last = lowest, now
		}
	}
}
