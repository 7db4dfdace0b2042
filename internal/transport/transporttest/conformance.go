// Package transporttest holds the executable Transport contract: one shared
// conformance battery that every implementation — in-process, chaos-wrapped,
// wire — must pass, instead of each implementation re-testing (or silently
// reinterpreting) the interface comments. The battery pins exactly the
// clauses the node runtime leans on:
//
//   - Send after Close returns transport.ErrClosed, including Sends that
//     were already parked on backpressure when Close ran; Close is
//     idempotent.
//   - Canceling a Send's context unblocks a backpressured Send promptly
//     with ctx.Err().
//   - Room first: a Send whose context is already done still enqueues
//     whenever the destination queue has room, and returns ctx.Err() at
//     once only when the queue is full — the node runtime's never-blocking
//     send.
//   - After Close returns, Recv streams are drained, not closed: already
//     queued deliveries remain readable, nothing new is ever enqueued, and
//     the channel stays open.
//   - Per-link FIFO: Seq values sent sequentially on one link arrive in
//     order (delivery across different links stays unordered).
//   - Zero goroutine leaks: after Close returns, every goroutine the
//     transport started is gone.
//
// It lives in its own package (the httptest idiom) so production binaries
// importing internal/transport never link the testing machinery.
package transporttest

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"iabc/internal/transport"
)

// Factory builds a fresh transport serving nodes [0, n) with the given
// per-node receive-queue capacity for one battery subtest. The battery owns
// the result and Closes it; a factory whose transport needs companion state
// (a peer instance, a chaos inner) must tie that state's lifetime to the
// returned transport's Close or to t.Cleanup.
type Factory func(t *testing.T, n, queueCap int) transport.Transport

// sendCap bounds the backpressure-probe send count: a transport that has
// accepted this many undrained messages without blocking has no
// backpressure to speak of.
const sendCap = 200_000

// Run exercises the full Transport conformance battery against factory.
// Call it once per implementation, under -race; each clause is a subtest.
func Run(t *testing.T, factory Factory) {
	t.Run("delivers", func(t *testing.T) { testDelivers(t, factory) })
	t.Run("send-after-close", func(t *testing.T) { testSendAfterClose(t, factory) })
	t.Run("close-unblocks-backpressured-send", func(t *testing.T) { testCloseUnblocks(t, factory) })
	t.Run("cancel-unblocks-backpressured-send", func(t *testing.T) { testCancelUnblocks(t, factory) })
	t.Run("done-ctx-enqueues-when-room", func(t *testing.T) { testDoneCtxEnqueues(t, factory) })
	t.Run("done-ctx-full-queue-fails-at-once", func(t *testing.T) { testDoneCtxFullQueue(t, factory) })
	t.Run("no-new-delivery-after-close", func(t *testing.T) { testDrainedNotClosed(t, factory) })
	t.Run("per-link-fifo", func(t *testing.T) { testPerLinkFIFO(t, factory) })
	t.Run("no-goroutine-leaks", func(t *testing.T) { testNoLeaks(t, factory) })
}

// recvOne receives from stream with a generous timeout.
func recvOne(t *testing.T, stream <-chan transport.Delivery) transport.Delivery {
	t.Helper()
	select {
	case d, ok := <-stream:
		if !ok {
			t.Fatal("Recv stream closed — the contract says drained, never closed")
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
	}
	panic("unreachable")
}

func testDelivers(t *testing.T, factory Factory) {
	tr := factory(t, 3, 8)
	defer tr.Close()
	want := transport.Delivery{From: 0, To: 2, Msg: transport.Msg{Round: 3, Value: 1.25, Seq: 9}}
	if err := tr.Send(context.Background(), 0, 2, want.Msg); err != nil {
		t.Fatal(err)
	}
	if d := recvOne(t, tr.Recv(2)); d != want {
		t.Fatalf("delivery = %+v, want %+v", d, want)
	}
}

func testSendAfterClose(t *testing.T, factory Factory) {
	tr := factory(t, 2, 4)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(context.Background(), 0, 1, transport.Msg{}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close: err = %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
}

// park starts a goroutine sending 0 -> 1 with nobody draining until the
// transport backpressures it (no accepted send for a quiet window), then
// returns the channel that will carry the parked Send's eventual error.
func park(t *testing.T, tr transport.Transport, ctx context.Context) <-chan error {
	t.Helper()
	var accepted atomic.Int64
	errc := make(chan error, 1)
	go func() {
		for seq := uint64(0); ; seq++ {
			if err := tr.Send(ctx, 0, 1, transport.Msg{Seq: seq}); err != nil {
				errc <- err
				return
			}
			if accepted.Add(1) >= sendCap {
				errc <- errors.New("transporttest: no backpressure engaged")
				return
			}
		}
	}()
	// Wait for progress to stall: the count must hold still for a full
	// quiet window while the sender is still alive.
	deadline := time.Now().Add(10 * time.Second)
	last, lastChange := int64(-1), time.Now()
	for {
		select {
		case err := <-errc:
			t.Fatalf("sender finished instead of parking: %v", err)
		default:
		}
		if n := accepted.Load(); n != last {
			last, lastChange = n, time.Now()
		} else if time.Since(lastChange) > 250*time.Millisecond {
			return errc
		}
		if time.Now().After(deadline) {
			t.Fatal("send progress never stalled — no backpressure")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testCloseUnblocks(t *testing.T, factory Factory) {
	tr := factory(t, 2, 2)
	errc := park(t, tr, context.Background())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("parked Send after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the parked Send")
	}
}

func testCancelUnblocks(t *testing.T, factory Factory) {
	tr := factory(t, 2, 2)
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := park(t, tr, ctx)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parked Send after cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ctx cancel did not unblock the backpressured Send")
	}
}

// canceled returns a context that is already done.
func canceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// testDoneCtxEnqueues sends many messages with a done ctx, each onto an
// empty queue: every one must be accepted and delivered. A Send that
// selects over the enqueue and ctx.Done at once fails about half of them.
func testDoneCtxEnqueues(t *testing.T, factory Factory) {
	const k = 1000
	tr := factory(t, 2, 8)
	defer tr.Close()
	ctx := canceled()
	for i := 0; i < k; i++ {
		if err := tr.Send(ctx, 0, 1, transport.Msg{Seq: uint64(i)}); err != nil {
			t.Fatalf("send %d with a done ctx onto an empty queue: err = %v, want nil", i, err)
		}
		if d := recvOne(t, tr.Recv(1)); d.Seq != uint64(i) {
			t.Fatalf("delivery %d: Seq = %d", i, d.Seq)
		}
	}
}

// testDoneCtxFullQueue parks a sender on a full queue, then requires a Send
// with a done ctx onto that queue to return ctx.Err() without waiting.
func testDoneCtxFullQueue(t *testing.T, factory Factory) {
	tr := factory(t, 2, 2)
	defer tr.Close()
	parkCtx, release := context.WithCancel(context.Background())
	defer release()
	parked := park(t, tr, parkCtx)
	errc := make(chan error, 1)
	go func() { errc <- tr.Send(canceled(), 0, 1, transport.Msg{Seq: 1 << 40}) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Send with a done ctx onto a full queue: err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send with a done ctx waited on a full queue")
	}
	release()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("parked Send never returned after cancel")
	}
}

// testDrainedNotClosed pins the post-Close Recv contract: queued deliveries
// stay readable, nothing new arrives once Close has returned, and the
// stream channel is never closed.
func testDrainedNotClosed(t *testing.T, factory Factory) {
	tr := factory(t, 2, 8)
	const sent = 4
	for i := 0; i < sent; i++ {
		if err := tr.Send(context.Background(), 0, 1, transport.Msg{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Prove the pipeline is flowing before closing (wire transports
	// enqueue asynchronously after Send returns).
	first := recvOne(t, tr.Recv(1))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has returned: everything still queued is readable (drained)...
	drained := []transport.Delivery{first}
	for {
		select {
		case d, ok := <-tr.Recv(1):
			if !ok {
				t.Fatal("Recv stream closed by Close — contract says drained, not closed")
			}
			drained = append(drained, d)
			continue
		default:
		}
		break
	}
	if len(drained) > sent {
		t.Fatalf("drained %d deliveries, sent only %d", len(drained), sent)
	}
	// ...and nothing new ever appears: the queue stays exactly as drained.
	select {
	case d, ok := <-tr.Recv(1):
		if !ok {
			t.Fatal("Recv stream closed after Close — contract says drained, not closed")
		}
		t.Fatalf("delivery %+v enqueued after Close returned", d)
	case <-time.After(100 * time.Millisecond):
	}
	if err := tr.Send(context.Background(), 0, 1, transport.Msg{Seq: 99}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close: err = %v, want ErrClosed", err)
	}
}

func testPerLinkFIFO(t *testing.T, factory Factory) {
	const k = 200
	tr := factory(t, 2, k+8)
	defer tr.Close()
	for i := 0; i < k; i++ {
		if err := tr.Send(context.Background(), 0, 1, transport.Msg{Round: i, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		d := recvOne(t, tr.Recv(1))
		if d.From != 0 || d.To != 1 {
			t.Fatalf("delivery %d traveled %d -> %d, want 0 -> 1", i, d.From, d.To)
		}
		if d.Seq != uint64(i) {
			t.Fatalf("delivery %d: Seq = %d — per-link FIFO violated", i, d.Seq)
		}
	}
}

// testNoLeaks runs a create / exercise / close cycle — including a
// backpressured-then-canceled Send, the path most likely to strand a
// goroutine — and requires the goroutine count to return to baseline.
func testNoLeaks(t *testing.T, factory Factory) {
	base := runtime.NumGoroutine()
	tr := factory(t, 3, 2)
	if err := tr.Send(context.Background(), 0, 2, transport.Msg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, tr.Recv(2))
	ctx, cancel := context.WithCancel(context.Background())
	errc := park(t, tr, ctx)
	cancel()
	select {
	case <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Send never returned")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before the transport existed",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
