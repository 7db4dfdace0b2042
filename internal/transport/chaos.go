package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"iabc/internal/hashrand"
	"iabc/internal/nodeset"
)

// Partition cuts every link between the node sets A and B in both
// directions for a wall-clock window: active from From after the chaos
// transport's creation until Until (Until ≤ 0 means the cut never heals).
// Sends across an active cut fail with ErrLinkDown, and messages already
// in flight (delayed by jitter) are lost if the cut is active when they
// would land.
type Partition struct {
	A, B        nodeset.Set
	From, Until time.Duration
}

// active reports whether the window covers the instant now.
func (p Partition) active(now time.Duration) bool {
	return now >= p.From && (p.Until <= 0 || now < p.Until)
}

// cuts reports whether the partition severs the link from -> to.
func (p Partition) cuts(from, to int, now time.Duration) bool {
	if !p.active(now) {
		return false
	}
	return (p.A.Contains(from) && p.B.Contains(to)) ||
		(p.B.Contains(from) && p.A.Contains(to))
}

// Crash takes Node off the network for a wall-clock window (semantics as in
// Partition): all links to and from it behave as down. The node runtime
// additionally restarts the node's actor from its durable state at the end
// of the window — the transport layer only models the connectivity loss.
type Crash struct {
	Node        int
	From, Until time.Duration
}

func (c Crash) active(now time.Duration) bool {
	return now >= c.From && (c.Until <= 0 || now < c.Until)
}

// ChaosConfig parameterizes a Chaos transport. All probabilistic decisions
// are pure functions of (Seed, from, to, Msg.Seq) through the hashrand
// keyed generator: given the same sequence numbering, the same messages are
// dropped, duplicated, and delayed by the same amounts on every run — the
// chaos is seeded and reproducible, while wall-clock interleaving remains
// the scheduler's.
type ChaosConfig struct {
	// Seed keys every probabilistic decision. Runs with equal seeds make
	// identical per-transmission decisions.
	Seed int64
	// Drop is the probability a message silently vanishes.
	Drop float64
	// Dup is the probability a message is delivered twice (the duplicate
	// draws its own independent delay, so the copies may reorder).
	Dup float64
	// MaxDelay bounds the per-message forwarding delay: each accepted
	// message waits a keyed-uniform duration in [0, MaxDelay) before it is
	// passed to the inner transport. Distinct delays on one link reorder
	// messages. 0 forwards synchronously.
	MaxDelay time.Duration
	// Partitions are the link cuts with their heal schedules.
	Partitions []Partition
	// Crashes are the per-node down windows.
	Crashes []Crash
}

// Stats counts what the chaos layer did to traffic. All counters are
// cumulative since creation.
type Stats struct {
	// Sent counts messages accepted into the chaos layer (before faults).
	Sent int64
	// Dropped counts messages the drop probability ate.
	Dropped int64
	// Duplicated counts extra copies injected.
	Duplicated int64
	// LinkDown counts sends refused because a partition or crash window
	// covered the link.
	LinkDown int64
	// Lost counts in-flight messages destroyed because their link was cut
	// or the transport closed before their delay elapsed.
	Lost int64
}

// Chaos wraps an inner Transport with seeded fault injection. It composes:
// any Transport can be wrapped, and the wrapper is itself a Transport, so
// the node runtime is oblivious to whether its network is clean or hostile.
//
// Close cancels all in-flight delayed deliveries, waits out the wrapper's
// goroutines, and closes the inner transport — Chaos owns what it wraps.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig
	start time.Time

	ctx    context.Context
	cancel context.CancelFunc
	// mu orders delayed-delivery registration against Close: forward adds
	// to wg only while closed is false, and Close sets closed before it
	// waits, so no goroutine is registered once Close's Wait has begun.
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	sent, dropped, duplicated, linkDown, lost atomic.Int64
}

var _ Transport = (*Chaos)(nil)

// NewChaos wraps inner with the configured fault injection. The wall clock
// for partition and crash windows starts now.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	ctx, cancel := context.WithCancel(context.Background())
	return &Chaos{inner: inner, cfg: cfg, start: time.Now(), ctx: ctx, cancel: cancel}
}

// now returns the wall-clock offset the fault windows are scheduled in.
func (c *Chaos) now() time.Duration { return time.Since(c.start) }

// linkUp reports whether from -> to is currently traversable.
func (c *Chaos) linkUp(from, to int, now time.Duration) bool {
	for _, p := range c.cfg.Partitions {
		if p.cuts(from, to, now) {
			return false
		}
	}
	for _, cr := range c.cfg.Crashes {
		if (cr.Node == from || cr.Node == to) && cr.active(now) {
			return false
		}
	}
	return true
}

// salts separating the per-transmission decision variates: one keyed hash
// per (Seed, from, to, Seq), re-mixed per decision so drop, dup, and the
// two delay draws are independent.
const (
	saltDrop = 0x64726f70 // "drop"
	saltDup  = 0x00647570 // "dup"
	saltDel1 = 0x64656c31 // "del1"
	saltDel2 = 0x64656c32 // "del2"
)

// variate derives the salted uniform in [0,1) from a transmission key.
func variate(key, salt uint64) float64 {
	return float64(hashrand.Splitmix64(key^salt)>>11) / (1 << 53)
}

// Send implements Transport. The decision cascade per transmission:
// link up? → drop? → delay (forward now or via a timer goroutine) → dup?
// (the copy draws its own delay). A nil return covers silent drops — the
// caller learns nothing, exactly like a lossy network.
func (c *Chaos) Send(ctx context.Context, from, to int, m Msg) error {
	if c.ctx.Err() != nil {
		return ErrClosed
	}
	if !c.linkUp(from, to, c.now()) {
		c.linkDown.Add(1)
		return ErrLinkDown
	}
	c.sent.Add(1)
	key := hashrand.Key(c.cfg.Seed, uint64(from), uint64(to), m.Seq)
	if c.cfg.Drop > 0 && variate(key, saltDrop) < c.cfg.Drop {
		c.dropped.Add(1)
		return nil
	}
	if err := c.forward(ctx, from, to, m, variate(key, saltDel1)); err != nil {
		return err
	}
	if c.cfg.Dup > 0 && variate(key, saltDup) < c.cfg.Dup {
		c.duplicated.Add(1)
		// The duplicate is best-effort: its delivery failure is not the
		// sender's problem (the original got through).
		_ = c.forward(ctx, from, to, m, variate(key, saltDel2))
	}
	return nil
}

// forward passes m to the inner transport after u·MaxDelay, synchronously
// when the delay rounds to zero, else via a tracked timer goroutine whose
// landing re-checks the link (in-flight messages die on an active cut). A
// delayed send that loses the race with Close returns ErrClosed.
func (c *Chaos) forward(ctx context.Context, from, to int, m Msg, u float64) error {
	d := time.Duration(u * float64(c.cfg.MaxDelay))
	if d <= 0 {
		return c.inner.Send(ctx, from, to, m)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.ctx.Done():
			c.lost.Add(1)
			return
		}
		if !c.linkUp(from, to, c.now()) {
			c.lost.Add(1)
			return
		}
		// Delivery uses the chaos lifetime, not the sender's ctx: the
		// sender already got its nil and moved on.
		if err := c.inner.Send(c.ctx, from, to, m); err != nil {
			c.lost.Add(1)
		}
	}()
	return nil
}

// Recv implements Transport.
func (c *Chaos) Recv(node int) <-chan Delivery { return c.inner.Recv(node) }

// Close implements Transport: abort in-flight deliveries, wait the wrapper
// goroutines out, then close the inner transport. The wait must precede the
// inner Close — a delayed-delivery goroutine that already passed its
// ctx.Done check may still be inside inner.Send, and closing the inner
// transport under it would hand a live send a closed peer (counted as Lost
// today, a use-after-close for inner transports with stricter lifecycles).
func (c *Chaos) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
	return c.inner.Close()
}

// Stats returns a snapshot of the fault counters.
func (c *Chaos) Stats() Stats {
	return Stats{
		Sent:       c.sent.Load(),
		Dropped:    c.dropped.Load(),
		Duplicated: c.duplicated.Load(),
		LinkDown:   c.linkDown.Load(),
		Lost:       c.lost.Load(),
	}
}
