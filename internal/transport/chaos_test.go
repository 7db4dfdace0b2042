package transport

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"iabc/internal/nodeset"
)

// drain collects every delivery currently available for node, waiting up to
// grace for stragglers.
func drain(tr Transport, node int, grace time.Duration) []Delivery {
	var out []Delivery
	for {
		select {
		case d := <-tr.Recv(node):
			out = append(out, d)
		case <-time.After(grace):
			return out
		}
	}
}

// TestChaosDropRateAndDeterminism sends a message train through two chaos
// transports with equal seeds and one with a different seed: equal seeds
// must make identical per-seq drop decisions, the different seed must not,
// and the drop rate must be near the configured probability.
func TestChaosDropRateAndDeterminism(t *testing.T) {
	const n, msgs, p = 2, 2000, 0.3
	ctx := context.Background()
	arrived := func(seed int64) map[uint64]bool {
		c := NewChaos(NewInproc(n, msgs+1), ChaosConfig{Seed: seed, Drop: p})
		defer c.Close()
		for i := 0; i < msgs; i++ {
			if err := c.Send(ctx, 0, 1, Msg{Round: i, Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		got := map[uint64]bool{}
		for _, d := range drain(c, 1, 10*time.Millisecond) {
			got[d.Seq] = true
		}
		if want := int64(msgs - len(got)); c.Stats().Dropped != want {
			t.Fatalf("seed %d: Stats().Dropped = %d, want %d", seed, c.Stats().Dropped, want)
		}
		return got
	}
	a, b, c := arrived(1), arrived(1), arrived(2)
	if len(a) != len(b) {
		t.Fatalf("equal seeds delivered %d vs %d messages", len(a), len(b))
	}
	for seq := range a {
		if !b[seq] {
			t.Fatalf("equal seeds disagree on seq %d", seq)
		}
	}
	rate := 1 - float64(len(a))/msgs
	if math.Abs(rate-p) > 0.05 {
		t.Fatalf("drop rate %.3f far from %.1f", rate, p)
	}
	same := true
	for seq := range a {
		if !c[seq] {
			same = false
		}
	}
	if same && len(a) == len(c) {
		t.Fatal("different seeds made identical drop decisions")
	}
}

func TestChaosDuplication(t *testing.T) {
	const msgs = 500
	c := NewChaos(NewInproc(2, 2*msgs), ChaosConfig{Seed: 3, Dup: 0.4})
	defer c.Close()
	for i := 0; i < msgs; i++ {
		if err := c.Send(context.Background(), 0, 1, Msg{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(c, 1, 10*time.Millisecond)
	dups := len(got) - msgs
	if int64(dups) != c.Stats().Duplicated {
		t.Fatalf("observed %d duplicates, stats say %d", dups, c.Stats().Duplicated)
	}
	if rate := float64(dups) / msgs; math.Abs(rate-0.4) > 0.08 {
		t.Fatalf("dup rate %.3f far from 0.4", rate)
	}
}

// TestChaosDelayReorders pushes a train through a jittered link and checks
// that (a) everything arrives, (b) arrival order differs from send order —
// the reordering fault — while per-message delay stays under MaxDelay.
func TestChaosDelayReorders(t *testing.T) {
	const msgs = 64
	c := NewChaos(NewInproc(2, msgs), ChaosConfig{Seed: 11, MaxDelay: 30 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	for i := 0; i < msgs; i++ {
		if err := c.Send(context.Background(), 0, 1, Msg{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(c, 1, 100*time.Millisecond)
	if len(got) != msgs {
		t.Fatalf("arrived %d of %d", len(got), msgs)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deliveries took far longer than MaxDelay")
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i].Seq < got[i-1].Seq {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("64 jittered messages arrived in send order — no reordering")
	}
}

func TestChaosPartitionWindowAndHeal(t *testing.T) {
	n := 4
	cut := Partition{
		A:    nodeset.FromMembers(n, 0, 1),
		B:    nodeset.FromMembers(n, 2, 3),
		From: 0, Until: 40 * time.Millisecond,
	}
	c := NewChaos(NewInproc(n, 8), ChaosConfig{Partitions: []Partition{cut}})
	defer c.Close()
	ctx := context.Background()
	// Active window: both directions across the cut fail, inside-set links work.
	if err := c.Send(ctx, 0, 2, Msg{}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("0->2 during cut: err = %v, want ErrLinkDown", err)
	}
	if err := c.Send(ctx, 3, 1, Msg{}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("3->1 during cut: err = %v, want ErrLinkDown", err)
	}
	if err := c.Send(ctx, 0, 1, Msg{}); err != nil {
		t.Fatalf("0->1 inside A during cut: %v", err)
	}
	if c.Stats().LinkDown != 2 {
		t.Fatalf("LinkDown = %d, want 2", c.Stats().LinkDown)
	}
	// After the heal, the cut link works again.
	time.Sleep(50 * time.Millisecond)
	if err := c.Send(ctx, 0, 2, Msg{Seq: 1}); err != nil {
		t.Fatalf("0->2 after heal: %v", err)
	}
	if got := drain(c, 2, 10*time.Millisecond); len(got) != 1 {
		t.Fatalf("post-heal deliveries = %d, want 1", len(got))
	}
}

func TestChaosCrashWindow(t *testing.T) {
	c := NewChaos(NewInproc(3, 8), ChaosConfig{
		Crashes: []Crash{{Node: 1, From: 0, Until: 40 * time.Millisecond}},
	})
	defer c.Close()
	ctx := context.Background()
	if err := c.Send(ctx, 0, 1, Msg{}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send to crashed node: err = %v, want ErrLinkDown", err)
	}
	if err := c.Send(ctx, 1, 2, Msg{}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send from crashed node: err = %v, want ErrLinkDown", err)
	}
	if err := c.Send(ctx, 0, 2, Msg{}); err != nil {
		t.Fatalf("bystander link during crash: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.Send(ctx, 0, 1, Msg{Seq: 1}); err != nil {
		t.Fatalf("send after restart window: %v", err)
	}
}

// TestChaosInFlightLostOnCut: a delayed message whose partition activates
// while it is in flight must be destroyed, not delivered through the cut.
func TestChaosInFlightLostOnCut(t *testing.T) {
	n := 2
	c := NewChaos(NewInproc(n, 8), ChaosConfig{
		Seed:     5,
		MaxDelay: 300 * time.Millisecond,
		Partitions: []Partition{{
			A:    nodeset.FromMembers(n, 0),
			B:    nodeset.FromMembers(n, 1),
			From: 20 * time.Millisecond,
		}},
	})
	defer c.Close()
	// Fire a burst immediately; any copy delayed past 20ms dies on the cut.
	accepted := 0
	for i := 0; i < 32; i++ {
		if err := c.Send(context.Background(), 0, 1, Msg{Seq: uint64(i)}); err == nil {
			accepted++
		}
	}
	if accepted == 0 {
		t.Skip("scheduler delayed the burst past the cut window")
	}
	got := drain(c, 1, 400*time.Millisecond)
	if len(got) >= accepted {
		t.Fatalf("all %d accepted messages arrived despite mid-flight cut", accepted)
	}
	if c.Stats().Lost == 0 {
		t.Fatal("no in-flight losses recorded")
	}
}

// lifecycleProbe is a Transport that records whether any Send arrives after
// Close returned — the use-after-close a wrapper with delayed deliveries can
// commit if it closes its inner transport before waiting its goroutines out.
type lifecycleProbe struct {
	inner           Transport
	closed          atomic.Bool
	sendsAfterClose atomic.Int64
}

func (p *lifecycleProbe) Send(ctx context.Context, from, to int, m Msg) error {
	if p.closed.Load() {
		p.sendsAfterClose.Add(1)
		return ErrClosed
	}
	// Dwell inside the send so a racing Close has a window to overlap it.
	time.Sleep(200 * time.Microsecond)
	if p.closed.Load() {
		p.sendsAfterClose.Add(1)
		return ErrClosed
	}
	return p.inner.Send(ctx, from, to, m)
}

func (p *lifecycleProbe) Recv(node int) <-chan Delivery { return p.inner.Recv(node) }

func (p *lifecycleProbe) Close() error {
	p.closed.Store(true)
	return p.inner.Close()
}

// TestChaosCloseOrdersInnerAfterDrain pins the Close ordering: the wrapper
// must wait its delayed-delivery goroutines out BEFORE closing the inner
// transport, so no inner Send ever overlaps or follows the inner Close.
// With the order inverted (inner.Close before wg.Wait), goroutines whose
// timers fired just before Close land their Sends on a closed transport —
// the probe counts those.
func TestChaosCloseOrdersInnerAfterDrain(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		probe := &lifecycleProbe{inner: NewInproc(2, 256)}
		c := NewChaos(probe, ChaosConfig{Seed: int64(trial), MaxDelay: 2 * time.Millisecond})
		for i := 0; i < 128; i++ {
			if err := c.Send(context.Background(), 0, 1, Msg{Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Close while a crowd of delayed deliveries is mid-flight — some
		// timers have fired and their goroutines are inside probe.Send.
		time.Sleep(time.Millisecond)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if n := probe.sendsAfterClose.Load(); n != 0 {
			t.Fatalf("trial %d: %d inner Sends arrived at or after inner Close", trial, n)
		}
	}
}

// TestChaosCloseWaitsForGoroutines pins the Close contract: after Close
// returns, the wrapper owns no goroutines even with deliveries in flight.
func TestChaosCloseWaitsForGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewChaos(NewInproc(2, 4), ChaosConfig{Seed: 9, MaxDelay: 200 * time.Millisecond})
	for i := 0; i < 64; i++ {
		_ = c.Send(context.Background(), 0, 1, Msg{Seq: uint64(i)})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d vs base %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Send(context.Background(), 0, 1, Msg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Close: err = %v, want ErrClosed", err)
	}
}

// TestChaosSendCloseConcurrent hammers delayed Sends against Close under
// the race detector: whatever the interleaving, Send returns nil or
// ErrClosed, and no delayed-delivery goroutine is registered once Close has
// begun waiting — none outlives Close. Close lands anywhere from before the
// senders' first Send to mid-stream, where the wrapper has no goroutine in
// flight and a racing Send would register the first.
func TestChaosSendCloseConcurrent(t *testing.T) {
	const n = 4
	for trial := 0; trial < 50; trial++ {
		c := NewChaos(NewInproc(n, 2), ChaosConfig{Seed: int64(trial), MaxDelay: 50 * time.Microsecond})
		done := make(chan struct{})
		for s := 0; s < n; s++ {
			s := s
			go func() {
				defer func() { done <- struct{}{} }()
				for j := 0; ; j++ {
					err := c.Send(context.Background(), s, (s+1)%n, Msg{Seq: uint64(j)})
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(trial%5) * 20 * time.Microsecond)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatalf("trial %d: a sender never observed the close", trial)
			}
		}
	}
}
