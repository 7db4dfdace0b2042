package distrib

// The worker side: connect to the coordinator (a TCP dial, or an in-memory
// pipe for an in-process pool), pull jobs, execute them with the same
// kernels the single-process scan uses (condition.ShardScanner, sim.Sweep),
// and report results in lockstep. Workers are stateless between jobs —
// everything they know arrives in a spec — so any number of them can join,
// die, or be SIGKILLed without affecting the computed result.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"iabc/internal/condition"
	"iabc/internal/sim"
)

// WorkerOptions configures Work.
type WorkerOptions struct {
	// DialPatience bounds how long the worker keeps retrying the initial
	// dial — workers routinely start before the coordinator has bound its
	// port (0 = 10s).
	DialPatience time.Duration
}

// Work connects to a coordinator at addr and processes jobs until the
// coordinator finishes (clean nil return), ctx is canceled, or the
// connection fails mid-protocol.
func Work(ctx context.Context, addr string, opts WorkerOptions) error {
	if opts.DialPatience <= 0 {
		opts.DialPatience = 10 * time.Second
	}
	dial := func(ctx context.Context) (net.Conn, error) { return dialRetry(ctx, addr, opts.DialPatience) }
	return work(ctx, dial, newSpecCache())
}

// RunPool runs workers in-process workers, each processing jobs as Work
// does over an in-memory connection to c, and returns once all of them have,
// with their errors joined. No port is involved: a pool needs no Listen, and
// composes with one (remote workers then share the pool's phases). The
// workers share one spec cache, so a spec is fetched and resolved once per
// pool — a scan's orbit table is built once — and each connection runs its
// own fork of it.
func (c *Coordinator) RunPool(ctx context.Context, workers int) error {
	return c.runPool(ctx, workers, newSpecCache())
}

func (c *Coordinator) runPool(ctx context.Context, workers int, specs *specCache) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = work(ctx, c.connect, specs)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// work is one connection to a coordinator, opened by connect: a TCP dial
// (Work) or an in-memory pipe (RunPool). Spec IDs are one coordinator's
// own, so every connection sharing specs must reach the same coordinator.
func work(ctx context.Context, connect func(context.Context) (net.Conn, error), specs *specCache) error {
	nc, err := connect(ctx)
	if err != nil {
		return err
	}
	defer nc.Close()
	// Unblock the reads below when ctx fires; the protocol has no other
	// cancellation point while waiting on the coordinator.
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()

	w := &worker{
		ctx:   ctx,
		nc:    nc,
		br:    bufio.NewReader(nc),
		specs: specs,
	}
	if err := w.hello(); err != nil {
		return w.wrap(err)
	}
	for {
		grant, done, err := w.requestJob()
		if err != nil {
			return w.wrap(err)
		}
		if done {
			return nil
		}
		spec, err := w.spec(grant.specID)
		if err != nil {
			return w.wrap(err)
		}
		if err := w.run(grant, spec); err != nil {
			return w.wrap(err)
		}
	}
}

func dialRetry(ctx context.Context, addr string, patience time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(patience)
	var lastErr error
	for {
		d := net.Dialer{Timeout: time.Second}
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return nc, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("distrib: dialing coordinator %s: %w", addr, lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

type worker struct {
	ctx     context.Context
	nc      net.Conn
	br      *bufio.Reader
	scratch []byte
	out     []byte
	specs   *specCache // shared by the pool
	// cur is this connection's own fork of spec curID, the spec of its last
	// job: the coordinator runs one phase at a time, so jobs arrive in runs
	// of one spec.
	curID uint64
	cur   *workerSpec
}

// wrap maps connection teardown to the caller's intent: a coordinator that
// hangs up is a clean shutdown, and a read error caused by our own
// ctx-triggered close reports the cancellation, not the close. Over TCP the
// hang-up reads as EOF at a frame boundary, and as a reset (or a broken pipe
// on the next write) when the coordinator closed with a frame of ours still
// unread — a report on a job its verdict had already made moot. Over an
// in-memory pipe it reads as EOF, or as io.ErrClosedPipe on a write; our own
// close reads as io.ErrClosedPipe too, so that one is a hang-up only while
// ctx is live.
func (w *worker) wrap(err error) error {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return nil
	}
	if cerr := context.Cause(w.ctx); cerr != nil {
		return cerr
	}
	if errors.Is(err, io.ErrClosedPipe) {
		return nil
	}
	return err
}

func (w *worker) send(frame []byte) error {
	_, err := w.nc.Write(frame)
	return err
}

// read returns the next frame; the payload aliases the worker's scratch
// buffer and is valid until the next read.
func (w *worker) read() (byte, []byte, error) {
	kind, payload, scratch, err := readFrame(w.br, w.scratch)
	w.scratch = scratch
	return kind, payload, err
}

func (w *worker) hello() error {
	if err := w.send(appendHello(w.out[:0])); err != nil {
		return err
	}
	kind, payload, err := w.read()
	if err != nil {
		return err
	}
	if kind != kindHello {
		return fmt.Errorf("distrib: expected hello, got frame kind %d", kind)
	}
	return decodeHello(payload)
}

func (w *worker) requestJob() (jobGrant, bool, error) {
	if err := w.send(appendJobRequest(w.out[:0])); err != nil {
		return jobGrant{}, false, err
	}
	kind, payload, err := w.read()
	if err != nil {
		return jobGrant{}, false, err
	}
	switch kind {
	case kindDone:
		return jobGrant{}, true, nil
	case kindJobGrant:
		g, err := decodeJobGrant(payload)
		return g, false, err
	default:
		return jobGrant{}, false, fmt.Errorf("distrib: expected grant, got frame kind %d", kind)
	}
}

// spec returns this connection's own copy of spec specID, taking the spec
// from the pool's cache or, if no connection of the pool has it yet,
// fetching it from the coordinator.
func (w *worker) spec(specID uint64) (*workerSpec, error) {
	if w.cur != nil && w.curID == specID {
		return w.cur, nil
	}
	ws, err := w.specs.get(w.ctx, specID, func() (*workerSpec, error) { return w.fetchSpec(specID) })
	if err != nil {
		return nil, err
	}
	w.curID, w.cur = specID, ws
	return ws, nil
}

// fetchSpec asks the coordinator for spec specID and resolves it.
func (w *worker) fetchSpec(specID uint64) (*workerSpec, error) {
	if err := w.send(appendNeedSpec(w.out[:0], specID)); err != nil {
		return nil, err
	}
	kind, payload, err := w.read()
	if err != nil {
		return nil, err
	}
	if kind != kindSpec {
		return nil, fmt.Errorf("distrib: expected spec, got frame kind %d", kind)
	}
	id, body, err := decodeSpec(payload)
	if err != nil {
		return nil, err
	}
	if id != specID {
		return nil, fmt.Errorf("distrib: asked for spec %d, got %d", specID, id)
	}
	return resolveSpec(body)
}

// readAck reads the ack answering the report just sent.
func (w *worker) readAck(jobID uint64) (ack, error) {
	kind, payload, err := w.read()
	if err != nil {
		return ack{}, err
	}
	if kind != kindAck {
		return ack{}, fmt.Errorf("distrib: expected ack, got frame kind %d", kind)
	}
	a, err := decodeAck(payload)
	if err != nil {
		return ack{}, err
	}
	if a.jobID != jobID {
		return ack{}, fmt.Errorf("distrib: ack for job %d while running job %d", a.jobID, jobID)
	}
	return a, nil
}

func (w *worker) run(g jobGrant, ws *workerSpec) error {
	switch {
	case g.kind == jobScan && ws.kind == "scan":
		return w.runScan(g, ws)
	case g.kind == jobScenario && ws.kind == "sweep":
		return w.runScenarios(g, ws)
	case g.kind == jobNoop && ws.kind == "noop":
		if err := w.send(appendReportOK(w.out[:0], reportOK{jobID: g.jobID, through: g.hi})); err != nil {
			return err
		}
		_, err := w.readAck(g.jobID)
		return err
	default:
		return fmt.Errorf("distrib: job kind %d does not match spec kind %q", g.kind, ws.kind)
	}
}

// runScan scans [lo, hi) in reportEvery-sized slices, renewing the lease
// with each report and honoring steal shrinks (ack.newHi) and cancels.
func (w *worker) runScan(g jobGrant, ws *workerSpec) error {
	acked, hi := g.lo, g.hi
	for acked < hi {
		end := acked + int64(g.reportEvery)
		if end > hi {
			end = hi
		}
		rr, err := ws.scanner.ScanRange(w.ctx, acked, end)
		if err != nil {
			return err
		}
		if rr.Violation >= 0 {
			witness, err := condition.EncodeWitness(rr.Witness)
			if err != nil {
				return err
			}
			if err := w.send(appendReportViol(w.out[:0], reportViol{
				jobID: g.jobID, viol: rr.Violation, sat: rr.Satisfied, partial: rr.Partial, witness: witness,
			})); err != nil {
				return err
			}
			_, err = w.readAck(g.jobID)
			return err
		}
		if err := w.send(appendReportOK(w.out[:0], reportOK{
			jobID: g.jobID, through: end, counters: rr.Satisfied,
		})); err != nil {
			return err
		}
		a, err := w.readAck(g.jobID)
		if err != nil {
			return err
		}
		if a.cancel {
			return nil
		}
		acked, hi = end, a.newHi
	}
	return nil
}

// runScenarios executes each scenario index i in [lo, hi) as a sim.Sweep of
// the decoded cfgs[i] alone — the same engine path a local sweep takes —
// and reports the bit-exact encoded result.
func (w *worker) runScenarios(g jobGrant, ws *workerSpec) error {
	for i := g.lo; i < g.hi; i++ {
		if i < 0 || i >= int64(len(ws.cfgs)) {
			return fmt.Errorf("distrib: scenario index %d outside [0, %d)", i, len(ws.cfgs))
		}
		res, err := sim.Sweep(w.ctx, ws.cfgs[i], []sim.Scenario{{}}, sim.SweepOptions{
			Engine: ws.engine, Workers: 1, Extras: ws.extras,
		})
		if err != nil {
			return err
		}
		var finals [][]float64
		if res.Finals != nil {
			finals = res.Finals[0]
		}
		payload, err := sim.EncodeScenarioResult(res.Traces[0], finals)
		if err != nil {
			return err
		}
		if err := w.send(appendReportTrace(w.out[:0], reportTrace{jobID: g.jobID, index: i, payload: payload})); err != nil {
			return err
		}
		a, err := w.readAck(g.jobID)
		if err != nil {
			return err
		}
		if a.cancel {
			return nil
		}
	}
	return nil
}
