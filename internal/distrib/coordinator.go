package distrib

// The coordinator owns the authoritative job state: a queue of pending index
// spans, a map of leased jobs, and — for scans — the durable contiguous
// frontier (condition.ScanFrontier). Each worker connection is served by its
// own goroutine in lockstep (only that goroutine writes to the connection),
// so all cross-connection coordination happens under one mutex.
//
// Correctness rests on three invariants:
//
//   - Job ranges are pairwise disjoint at all times: grants chunk spans off
//     the queue, stealing splits a leased range at a point the worker cannot
//     have passed (acked + reportEvery), and requeues re-insert exactly the
//     unacknowledged remainder [acked, hi).
//   - Reports are fenced by jobID: a lease that expires (or whose connection
//     drops) is removed from the job map before its range is requeued, so a
//     zombie worker's late report finds no job and is answered with a cancel
//     ack — it is never journaled, and each index is journaled exactly once.
//   - The frontier only advances over gap-free satisfied prefixes, so the
//     durable checkpoint — and the composed Result — are byte-identical to
//     the single-process scan no matter how leases moved.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"iabc/internal/condition"
	"iabc/internal/graph"
	"iabc/internal/sim"
)

// Defaults for Options zero values.
const (
	DefaultLease       = 10 * time.Second
	DefaultChunkSize   = 1024
	DefaultReportEvery = 256
)

// Options configures a Coordinator.
type Options struct {
	// Lease is how long a granted job may go without a report before its
	// unacknowledged remainder is requeued (0 = DefaultLease).
	Lease time.Duration
	// ChunkSize is the maximum fault sets per scan grant (0 = DefaultChunkSize).
	ChunkSize int
	// ReportEvery is the scan report cadence in fault sets (0 =
	// DefaultReportEvery). Smaller values tighten lease granularity and
	// steal latency at the cost of more round trips.
	ReportEvery int
}

func (o Options) withDefaults() Options {
	if o.Lease <= 0 {
		o.Lease = DefaultLease
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.ReportEvery <= 0 {
		o.ReportEvery = DefaultReportEvery
	}
	return o
}

// Stats counts coordinator-side scheduling events.
type Stats struct {
	// WorkersSeen counts completed hello exchanges.
	WorkersSeen int64
	// JobsGranted counts grants sent (steal grants included).
	JobsGranted int64
	// JobsStolen counts grants carved out of another worker's leased range.
	JobsStolen int64
	// LeasesRequeued counts jobs whose remainder was requeued after a lease
	// expiry or connection drop.
	LeasesRequeued int64
	// StaleReports counts reports answered with a cancel ack because their
	// job had been requeued, canceled, or completed elsewhere.
	StaleReports int64
}

// span is a pending half-open index range.
type span struct{ lo, hi int64 }

// job is one leased range.
type job struct {
	id      uint64
	lo, hi  int64
	acked   int64 // all of [lo, acked) has been reported and journaled
	expires time.Time
	owner   *connState
}

// phase is one distributed computation: a single scan, sweep, or noop batch.
// The coordinator runs at most one phase at a time (condition.MaxFScan runs
// its checks sequentially, exactly like the single-process scan).
type phase struct {
	specID      uint64
	kind        jobKind
	chunk       int64
	reportEvery uint32
	// open marks a phase whose spans arrive incrementally (sweeps submit
	// scenario jobs as sim.Sweep schedules them); a closed phase completes
	// when queue and jobs drain.
	open  bool
	queue []span
	jobs  map[uint64]*job
	// Scan state: the durable frontier plus the minimal violation seen.
	fr          *condition.ScanFrontier
	bestViol    int64
	witnessRaw  []byte
	violPartial condition.WorkCounters
	onProgress  condition.ProgressFunc
	// Sweep state: per-scenario-index result channels (buffered 1).
	results map[int64]chan []byte

	completed bool
	err       error
	done      chan struct{}
}

type connState struct{ nc net.Conn }

// Coordinator serves job ranges to workers and aggregates their reports.
type Coordinator struct {
	opts Options
	ln   net.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	conns    map[*connState]struct{}
	specs    map[uint64][]byte
	nextSpec uint64
	nextJob  uint64
	ph       *phase
	stats    Stats
	sweeping bool // the lease sweeper runs; it starts with the first connection

	sweepStop chan struct{}
	wg        sync.WaitGroup
}

// NewCoordinator returns an unstarted coordinator: call Listen for remote
// workers, RunPool for in-process ones, or both.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:      opts.withDefaults(),
		conns:     make(map[*connState]struct{}),
		specs:     make(map[uint64][]byte),
		sweepStop: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Listen binds the job port ("host:port"; ":0" picks a free port) and starts
// accepting workers. Workers may join over in-memory connections too
// (RunPool), with or without a listener.
func (c *Coordinator) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("distrib: listen %s: %w", addr, err)
	}
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop()
	return nil
}

// Addr returns the bound listen address, or "" when the coordinator has no
// listener and serves in-memory connections only.
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Stats returns a snapshot of the scheduling counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close stops accepting, disconnects workers, and fails any active phase.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.sweepStop)
	for cs := range c.conns {
		cs.nc.Close()
	}
	if ph := c.ph; ph != nil && !ph.completed {
		ph.completed = true
		ph.err = errors.New("distrib: coordinator closed")
		close(ph.done)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	var err error
	if c.ln != nil {
		err = c.ln.Close()
	}
	c.wg.Wait()
	return err
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		nc, err := c.ln.Accept()
		if err != nil || !c.serve(nc) {
			return
		}
	}
}

// serve registers nc as a worker connection and serves it on a goroutine of
// its own, starting the lease sweeper with the first one. It reports false,
// closing nc, once the coordinator is closed. Accepted and in-memory
// connections take this one path, so they speak the same protocol under the
// same leases.
func (c *Coordinator) serve(nc net.Conn) bool {
	cs := &connState{nc: nc}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return false
	}
	if !c.sweeping {
		c.sweeping = true
		c.wg.Add(1)
		go c.leaseSweeper()
	}
	c.conns[cs] = struct{}{}
	c.wg.Add(1)
	c.mu.Unlock()
	go c.handleConn(cs)
	return true
}

// connect opens an in-memory connection to c and returns the worker's end:
// the coordinator serves the other end as it serves an accepted one. A
// net.Pipe is synchronous — a write returns once the peer has read it — so
// handleConn writes only after releasing c.mu, as it must for TCP anyway.
func (c *Coordinator) connect(context.Context) (net.Conn, error) {
	wc, sc := net.Pipe()
	if !c.serve(sc) {
		wc.Close()
		return nil, errors.New("distrib: coordinator closed")
	}
	return wc, nil
}

// leaseSweeper requeues expired leases and periodically wakes grant waiters.
func (c *Coordinator) leaseSweeper() {
	defer c.wg.Done()
	tick := c.opts.Lease / 4
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		if ph := c.ph; ph != nil && !ph.completed {
			for id, j := range ph.jobs {
				if now.After(j.expires) {
					delete(ph.jobs, id)
					c.requeueLocked(ph, j)
				}
			}
			c.checkCompleteLocked(ph)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// requeueLocked puts a removed job's unacknowledged remainder back on the
// queue, unless a lower violation made it moot.
func (c *Coordinator) requeueLocked(ph *phase, j *job) {
	c.stats.LeasesRequeued++
	if j.acked < j.hi && (ph.bestViol < 0 || j.lo <= ph.bestViol) {
		ph.queue = append(ph.queue, span{j.acked, j.hi})
	}
}

// checkCompleteLocked settles the phase once all work has drained.
func (c *Coordinator) checkCompleteLocked(ph *phase) {
	if !ph.completed && !ph.open && len(ph.queue) == 0 && len(ph.jobs) == 0 {
		ph.completed = true
		close(ph.done)
	}
}

// failPhaseLocked aborts the phase with err (first error wins).
func (c *Coordinator) failPhaseLocked(ph *phase, err error) {
	if ph.completed {
		return
	}
	ph.completed = true
	ph.err = err
	ph.queue = nil
	for id := range ph.jobs {
		delete(ph.jobs, id)
	}
	close(ph.done)
}

// —— connection serving ——

func (c *Coordinator) handleConn(cs *connState) {
	defer c.wg.Done()
	defer c.dropConn(cs)
	nc := cs.nc
	br := bufio.NewReader(nc)
	var scratch, out []byte

	// Hello exchange first; anything else is a stray client.
	kind, payload, scratch, err := readFrame(br, scratch)
	if err != nil || kind != kindHello || decodeHello(payload) != nil {
		return
	}
	if _, err := nc.Write(appendHello(out[:0])); err != nil {
		return
	}
	c.mu.Lock()
	c.stats.WorkersSeen++
	c.mu.Unlock()

	for {
		kind, payload, newScratch, err := readFrame(br, scratch)
		if err != nil {
			return
		}
		scratch = newScratch
		var notify condition.ProgressFunc
		out = out[:0]
		switch kind {
		case kindJobRequest:
			grant, spanDone := c.nextGrant(cs)
			if spanDone {
				out = appendDone(out)
			} else {
				out = appendJobGrant(out, grant)
			}
		case kindNeedSpec:
			specID, err := decodeNeedSpec(payload)
			if err != nil {
				return
			}
			c.mu.Lock()
			spec, ok := c.specs[specID]
			c.mu.Unlock()
			if !ok {
				return
			}
			out = appendSpec(out, specID, spec)
		case kindReportOK:
			r, err := decodeReportOK(payload)
			if err != nil {
				return
			}
			a, np, err := c.handleReportOK(r)
			if err != nil {
				return
			}
			notify = np
			out = appendAck(out, a)
		case kindReportViol:
			r, err := decodeReportViol(payload)
			if err != nil {
				return
			}
			a, np, err := c.handleReportViol(r)
			if err != nil {
				return
			}
			notify = np
			out = appendAck(out, a)
		case kindReportTrace:
			r, err := decodeReportTrace(payload)
			if err != nil {
				return
			}
			out = appendAck(out, c.handleReportTrace(r))
		default:
			return
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
		if notify != nil {
			notify(condition.Progress{})
		}
	}
}

// dropConn removes the connection and requeues every job it still leases.
func (c *Coordinator) dropConn(cs *connState) {
	cs.nc.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, cs)
	if ph := c.ph; ph != nil && !ph.completed {
		for id, j := range ph.jobs {
			if j.owner == cs {
				delete(ph.jobs, id)
				c.requeueLocked(ph, j)
			}
		}
		c.checkCompleteLocked(ph)
	}
	c.cond.Broadcast()
}

// nextGrant blocks until a job is available, carving one off the largest
// pending span — or, when the queue is dry, stealing the far half of the
// largest leased scan range. done=true means the coordinator is shutting
// down and the worker should exit.
func (c *Coordinator) nextGrant(cs *connState) (jobGrant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return jobGrant{}, true
		}
		if ph := c.ph; ph != nil && !ph.completed {
			if len(ph.queue) > 0 {
				// Pop the largest span; grant a chunk, push back the rest.
				best := 0
				for i, sp := range ph.queue {
					if sp.hi-sp.lo > ph.queue[best].hi-ph.queue[best].lo {
						best = i
					}
				}
				sp := ph.queue[best]
				ph.queue[best] = ph.queue[len(ph.queue)-1]
				ph.queue = ph.queue[:len(ph.queue)-1]
				hi := sp.lo + ph.chunk
				if hi > sp.hi {
					hi = sp.hi
				}
				if hi < sp.hi {
					ph.queue = append(ph.queue, span{hi, sp.hi})
				}
				return c.grantLocked(ph, cs, sp.lo, hi), false
			}
			if ph.kind == jobScan {
				// Steal: split the leased range with the most work beyond
				// its safe point (the furthest index the worker could reach
				// before its next report round-trips).
				var victim *job
				var bestAvail int64
				for _, j := range ph.jobs {
					safe := j.acked + int64(ph.reportEvery)
					if safe > j.hi {
						safe = j.hi
					}
					if avail := j.hi - safe; avail > bestAvail {
						bestAvail, victim = avail, j
					}
				}
				if victim != nil && bestAvail >= 2*int64(ph.reportEvery) {
					safe := victim.acked + int64(ph.reportEvery)
					mid := safe + (victim.hi-safe)/2
					hi := victim.hi
					victim.hi = mid // conveyed by the victim's next ack.newHi
					c.stats.JobsStolen++
					return c.grantLocked(ph, cs, mid, hi), false
				}
			}
		}
		c.cond.Wait()
	}
}

func (c *Coordinator) grantLocked(ph *phase, cs *connState, lo, hi int64) jobGrant {
	c.nextJob++
	j := &job{id: c.nextJob, lo: lo, hi: hi, acked: lo, expires: time.Now().Add(c.opts.Lease), owner: cs}
	ph.jobs[j.id] = j
	c.stats.JobsGranted++
	return jobGrant{jobID: j.id, specID: ph.specID, kind: ph.kind, lo: lo, hi: hi, reportEvery: ph.reportEvery}
}

// staleAck answers a report whose job is gone: the worker must abandon it.
func (c *Coordinator) staleAckLocked(jobID uint64) ack {
	c.stats.StaleReports++
	return ack{jobID: jobID, cancel: true}
}

// lookupJob fences a report: nil means the job was requeued, canceled, or
// never existed, and the report must not be journaled.
func (ph *phase) lookupJob(id uint64) *job {
	if ph == nil || ph.completed {
		return nil
	}
	return ph.jobs[id]
}

func (c *Coordinator) handleReportOK(r reportOK) (ack, condition.ProgressFunc, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.ph
	j := ph.lookupJob(r.jobID)
	if j == nil {
		return c.staleAckLocked(r.jobID), nil, nil
	}
	if r.through < j.acked || r.through > j.hi {
		return ack{}, nil, fmt.Errorf("distrib: report through %d outside [%d, %d]", r.through, j.acked, j.hi)
	}
	if ph.fr != nil && r.through > j.acked {
		if err := ph.fr.CompleteSpan(context.Background(), j.acked, r.through, r.counters); err != nil {
			c.failPhaseLocked(ph, err)
			return c.staleAckLocked(r.jobID), nil, nil
		}
	}
	j.acked = r.through
	j.expires = time.Now().Add(c.opts.Lease)
	if j.acked >= j.hi {
		delete(ph.jobs, j.id)
		c.checkCompleteLocked(ph)
	}
	return ack{jobID: j.id, newHi: j.hi}, ph.onProgress, nil
}

func (c *Coordinator) handleReportViol(r reportViol) (ack, condition.ProgressFunc, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.ph
	j := ph.lookupJob(r.jobID)
	if j == nil {
		return c.staleAckLocked(r.jobID), nil, nil
	}
	if r.viol < j.acked || r.viol >= j.hi {
		return ack{}, nil, fmt.Errorf("distrib: violation %d outside [%d, %d)", r.viol, j.acked, j.hi)
	}
	if ph.fr != nil && r.viol > j.acked {
		if err := ph.fr.CompleteSpan(context.Background(), j.acked, r.viol, r.sat); err != nil {
			c.failPhaseLocked(ph, err)
			return c.staleAckLocked(r.jobID), nil, nil
		}
	}
	if ph.bestViol < 0 || r.viol < ph.bestViol {
		ph.bestViol = r.viol
		ph.witnessRaw = append(ph.witnessRaw[:0], r.witness...)
		ph.violPartial = r.partial
	}
	delete(ph.jobs, j.id)
	// Everything past the lowest violation is moot: the sequential scan
	// would never have reached it. Ranges are disjoint, so no other job or
	// span straddles the violation.
	for id, jj := range ph.jobs {
		if jj.lo > ph.bestViol {
			delete(ph.jobs, id)
		}
	}
	keep := ph.queue[:0]
	for _, sp := range ph.queue {
		if sp.lo <= ph.bestViol {
			keep = append(keep, sp)
		}
	}
	ph.queue = keep
	c.checkCompleteLocked(ph)
	return ack{jobID: j.id, newHi: j.hi}, ph.onProgress, nil
}

func (c *Coordinator) handleReportTrace(r reportTrace) ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.ph
	j := ph.lookupJob(r.jobID)
	if j == nil {
		return c.staleAckLocked(r.jobID)
	}
	ch := ph.results[r.index]
	if ch == nil {
		return c.staleAckLocked(r.jobID)
	}
	delete(ph.results, r.index)
	ch <- append([]byte(nil), r.payload...) // buffered 1; payload aliases the read scratch
	delete(ph.jobs, j.id)
	c.checkCompleteLocked(ph)
	return ack{jobID: j.id, newHi: j.hi}
}

// —— phase lifecycle ——

func (c *Coordinator) registerSpec(payload []byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSpec++
	c.specs[c.nextSpec] = payload
	return c.nextSpec
}

func (c *Coordinator) startPhase(ph *phase) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("distrib: coordinator closed")
	}
	if c.ph != nil && !c.ph.completed {
		return errors.New("distrib: a phase is already running")
	}
	ph.jobs = make(map[uint64]*job)
	ph.done = make(chan struct{})
	ph.bestViol = -1
	c.ph = ph
	c.checkCompleteLocked(ph)
	c.cond.Broadcast()
	return nil
}

// waitPhase blocks until the phase drains or ctx fires; either way the
// coordinator's active phase is cleared before returning.
func (c *Coordinator) waitPhase(ctx context.Context, ph *phase) error {
	var err error
	select {
	case <-ph.done:
		err = ph.err
	case <-ctx.Done():
		err = context.Cause(ctx)
	}
	c.mu.Lock()
	if !ph.completed {
		c.failPhaseLocked(ph, err)
	}
	if c.ph == ph {
		c.ph = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return err
}

// —— the three distributed entry points ——

// CheckScan runs one exact check with the fault-set enumeration distributed
// across connected workers. It implements condition.MaxFOptions.CheckRunner
// and honors the CheckScan contract: same Result for the same identity,
// opts.Store consulted for resume and verdict caching. The workers' reports
// are journaled into the scan's condition.ScanFrontier and the Result is
// settled through it, as in the single-process scan. The leases partition
// the frontier's index space, [0, condition.NumFaultSets).
func (c *Coordinator) CheckScan(ctx context.Context, g *graph.Graph, f, threshold int, opts condition.ScanOptions) (condition.Result, error) {
	fr, cached, err := condition.LoadScanFrontier(ctx, opts.Store, g, f, threshold, opts.CheckpointEvery)
	if err != nil {
		return condition.Result{}, err
	}
	if cached != nil {
		return *cached, nil
	}
	total := fr.Total()
	resume, _ := fr.ResumePoint()
	spec, err := buildScanSpec(g, f, threshold)
	if err != nil {
		return condition.Result{}, err
	}
	ph := &phase{
		specID:      c.registerSpec(spec),
		kind:        jobScan,
		chunk:       int64(c.opts.ChunkSize),
		reportEvery: uint32(c.opts.ReportEvery),
		fr:          fr,
	}
	if resume < total {
		ph.queue = []span{{resume, total}}
	}
	if opts.OnProgress != nil {
		cb, fr := opts.OnProgress, fr
		ph.onProgress = func(condition.Progress) {
			done, _ := fr.Position()
			cb(condition.Progress{FaultSetsDone: done, FaultSetsTotal: total})
		}
	}
	if err := c.startPhase(ph); err != nil {
		return condition.Result{}, err
	}
	if err := c.waitPhase(ctx, ph); err != nil {
		fr.Flush(context.Background())
		return condition.Result{}, err
	}
	var w *condition.Witness
	if ph.bestViol >= 0 {
		if w, err = condition.DecodeWitness(ph.witnessRaw); err != nil {
			return condition.Result{}, err
		}
	}
	return fr.Settle(ctx, ph.bestViol, w, ph.violPartial)
}

// Sweep runs a scenario sweep with each scenario executed on a worker. The
// job spec is the sweep's sim.SweepSpec: every derived scenario config,
// with rules and adversaries by canonical name (see
// adversary.CanonicalName), so the derived configs must be distributable.
// Durable resume (opts.Store) composes: resumed scenarios never reach the
// job queue.
func (c *Coordinator) Sweep(ctx context.Context, base sim.Config, scenarios []sim.Scenario, opts sim.SweepOptions) (*sim.SweepResult, error) {
	if len(scenarios) == 0 {
		return &sim.SweepResult{}, nil
	}
	sweep, err := sim.NewSweepSpec(base, scenarios, opts)
	if err != nil {
		return nil, err
	}
	spec, err := sweepJobSpec(sweep)
	if err != nil {
		return nil, err
	}
	ph := &phase{
		specID:      c.registerSpec(spec),
		kind:        jobScenario,
		chunk:       1,
		reportEvery: 1,
		open:        true,
		results:     make(map[int64]chan []byte),
	}
	if err := c.startPhase(ph); err != nil {
		return nil, err
	}
	opts.Runner = func(ctx context.Context, index int, cfg *sim.Config, extras [][]float64) (*sim.Trace, [][]float64, error) {
		ch, err := c.submitScenario(ph, int64(index))
		if err != nil {
			return nil, nil, err
		}
		select {
		case raw := <-ch:
			return sim.DecodeScenarioResult(raw)
		case <-ph.done:
			if ph.err != nil {
				return nil, nil, ph.err
			}
			return nil, nil, errors.New("distrib: phase ended before scenario result")
		case <-ctx.Done():
			return nil, nil, context.Cause(ctx)
		}
	}
	res, err := sim.Sweep(ctx, base, scenarios, opts)
	c.mu.Lock()
	ph.open = false
	if !ph.completed {
		c.failPhaseLocked(ph, nil)
	}
	if c.ph == ph {
		c.ph = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return res, err
}

// submitScenario enqueues scenario index i and returns the channel its
// encoded result will arrive on.
func (c *Coordinator) submitScenario(ph *phase, i int64) (chan []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ph.completed {
		if ph.err != nil {
			return nil, ph.err
		}
		return nil, errors.New("distrib: phase already ended")
	}
	ch := make(chan []byte, 1)
	ph.results[i] = ch
	ph.queue = append(ph.queue, span{i, i + 1})
	c.cond.Broadcast()
	return ch, nil
}

// DispatchNoop pushes n empty jobs through the full grant/report/ack cycle —
// the dispatch-throughput benchmark kernel.
func (c *Coordinator) DispatchNoop(ctx context.Context, n int64) error {
	spec, err := buildNoopSpec()
	if err != nil {
		return err
	}
	ph := &phase{
		specID:      c.registerSpec(spec),
		kind:        jobNoop,
		chunk:       1,
		reportEvery: 1,
		queue:       []span{{0, n}},
	}
	if err := c.startPhase(ph); err != nil {
		return err
	}
	return c.waitPhase(ctx, ph)
}
