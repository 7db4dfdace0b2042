package main

// Direct drives: the benchmark calls a layer's exported functions on inputs
// shaped like the workload's and times them on one goroutine. A drive's
// number is what the layer costs alone; the seams of seams.go say how often
// an op pays it. Every drive repeats a fixed batch until its time budget is
// spent, reports the median batch, and records one root span.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"iabc"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/distrib"
	"iabc/internal/nodeset"
	"iabc/internal/quorum"
	"iabc/internal/statestore"
)

// driver runs drives for one workload's per-layer pass.
type driver struct {
	rec      *recorder
	workload string
	budget   time.Duration // per drive
}

// repeat runs batch until the budget is spent (at least min times), records
// a root span over all of it and returns each batch's duration in ns.
func (d *driver) repeat(name string, min int, batch func() error) ([]float64, error) {
	var ns []float64
	begin := time.Now()
	for len(ns) < min || time.Since(begin) < d.budget {
		start := time.Now()
		if err := batch(); err != nil {
			return nil, fmt.Errorf("drive %s: %w", name, err)
		}
		ns = append(ns, float64(time.Since(start)))
	}
	d.rec.root("drive:"+name, d.workload, -1, begin, time.Now(), int64(len(ns)))
	return ns, nil
}

var driveSink float64

// ruleUpdateNs drives TrimmedMean.UpdateInto over inputs captured from one of
// the workload's own ops — the cost of the selection depends on how sorted
// the received values are, which random inputs would get wrong — and returns
// the mean cost of one call in ns, in the median batch and in the best one.
func (d *driver) ruleUpdateNs(samples []ruleSample) (medianNs, bestNs float64, err error) {
	if len(samples) == 0 {
		return 0, 0, fmt.Errorf("drive core.update: the capture op saw no rule call")
	}
	passes := 1 + 100000/len(samples)
	var scratch core.Scratch
	ns, err := d.repeat("core.update", 5, func() error {
		for p := 0; p < passes; p++ {
			for _, in := range samples {
				v, err := core.TrimmedMean{}.UpdateInto(&scratch, in.own, in.received, in.f)
				if err != nil {
					return err
				}
				driveSink += v
			}
		}
		return nil
	})
	calls := float64(passes * len(samples))
	return median(ns) / calls, percentile(ns, 0) / calls, err
}

// quorumNs drives a Ring through the arrival pattern of a K8 node: in-degree
// 7, quorum 6, the seventh value arriving after the round was popped. It
// returns the cost of one Put with its Filled test (the Pop amortised in) and
// of one Gather, the latter as the difference of two loops.
func (d *driver) quorumNs() (putNs, gatherNs float64, err error) {
	const deg, quorumSize, rounds = clusterN - 1, clusterN - 2, 20000
	senders := make([]int, deg)
	for i := range senders {
		senders[i] = i + 1
	}
	buf := make([]core.ValueFrom, 0, deg)
	loop := func(gather bool) func() error {
		return func() error {
			ring := quorum.NewRing(deg)
			for r := 0; r < rounds; r++ {
				for k := 0; k < quorumSize; k++ {
					ring.Put(r, (r+k)%deg, float64(k))
					if ring.Filled(r) > quorumSize {
						return fmt.Errorf("ring over-filled at round %d", r)
					}
				}
				if gather {
					buf = ring.Gather(r, senders, buf[:0])
					if len(buf) != quorumSize {
						return fmt.Errorf("gathered %d values, want %d", len(buf), quorumSize)
					}
				}
				ring.Pop()
			}
			return nil
		}
	}
	half := *d
	half.budget = d.budget / 2
	without, err := half.repeat("quorum.put", 5, loop(false))
	if err != nil {
		return 0, 0, err
	}
	with, err := half.repeat("quorum.gather", 5, loop(true))
	if err != nil {
		return 0, 0, err
	}
	putNs = median(without) / float64(rounds*quorumSize)
	gatherNs = (median(with) - median(without)) / rounds
	if gatherNs < 0 {
		gatherNs = 0
	}
	return putNs, gatherNs, nil
}

// streamNs pushes n messages down one link of tr from a producer goroutine
// and drains them, returning ns per message.
func streamNs(tr iabc.Transport, n int) (float64, error) {
	ctx := context.Background()
	rc := tr.Recv(1)
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			if err := tr.Send(ctx, 0, 1, iabc.Msg{Round: i, Value: 1, Seq: uint64(i)}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		select {
		case <-rc:
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("stream stalled after %d of %d messages", i, n)
		}
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / float64(n), nil
}

// inprocSendNs is the one-link stream over the in-process transport.
func (d *driver) inprocSendNs() (float64, error) {
	const msgs = 20000
	var per []float64
	_, err := d.repeat("transport.inproc_stream", 5, func() error {
		tr := iabc.NewInprocTransport(2, 1024)
		defer tr.Close()
		ns, err := streamNs(tr, msgs)
		per = append(per, ns)
		return err
	})
	return median(per), err
}

type tcpDrive struct{ sendNs, rttP50us, rttP99us, setupMs float64 }

// tcp drives the wire transport on loopback: set-up to first delivery, a
// one-link stream, and a ping-pong between two nodes behind one listener.
func (d *driver) tcp() (tcpDrive, error) {
	ctx := context.Background()
	var out tcpDrive
	third := *d
	third.budget = d.budget / 3

	open := func() (iabc.Transport, error) {
		cfg, err := tcpConfig(2)
		if err != nil {
			return nil, err
		}
		return iabc.NewTCPTransport(cfg)
	}
	setupNs, err := third.repeat("transport.tcp_setup", 5, func() error {
		tr, err := open()
		if err != nil {
			return err
		}
		defer tr.Close()
		if err := tr.Send(ctx, 0, 1, iabc.Msg{Round: 1}); err != nil {
			return err
		}
		select {
		case <-tr.Recv(1):
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("first delivery never arrived")
		}
	})
	if err != nil {
		return out, err
	}
	out.setupMs = median(setupNs) / 1e6

	const msgs = 5000
	var per []float64
	if _, err := third.repeat("transport.tcp_stream", 3, func() error {
		tr, err := open()
		if err != nil {
			return err
		}
		defer tr.Close()
		ns, err := streamNs(tr, msgs)
		per = append(per, ns)
		return err
	}); err != nil {
		return out, err
	}
	out.sendNs = median(per)

	const pings = 500
	var rtts []float64
	if _, err := third.repeat("transport.tcp_pingpong", 3, func() error {
		tr, err := open()
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // node 1 echoes
			defer wg.Done()
			for {
				select {
				case dl := <-tr.Recv(1):
					if tr.Send(ctx, 1, 0, dl.Msg) != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}()
		defer func() { close(stop); wg.Wait(); tr.Close() }()
		for i := 0; i < pings; i++ {
			start := time.Now()
			if err := tr.Send(ctx, 0, 1, iabc.Msg{Round: i, Seq: uint64(i)}); err != nil {
				return err
			}
			select {
			case <-tr.Recv(0):
			case <-time.After(10 * time.Second):
				return fmt.Errorf("ping %d never returned", i)
			}
			if i > 0 { // the first ping pays both dials
				rtts = append(rtts, float64(time.Since(start))/1e3)
			}
		}
		return nil
	}); err != nil {
		return out, err
	}
	out.rttP50us, out.rttP99us = percentile(rtts, 0.5), percentile(rtts, 0.99)
	return out, nil
}

// scanMs drives the checker kernel on one goroutine: a ShardScanner over the
// whole fault-set range. It returns the median and the best time of a full scan.
func (d *driver) scanMs(g *iabc.Graph, f int) (medianMs, bestMs float64, err error) {
	sc, err := condition.NewShardScanner(g, f, condition.SyncThreshold(f))
	if err != nil {
		return 0, 0, err
	}
	ns, err := d.repeat("condition.scan", 3, func() error {
		res, err := sc.ScanRange(context.Background(), 0, sc.NumFaultSets())
		if err == nil && res.Violation >= 0 {
			err = fmt.Errorf("scan found a violation at fault set %d", res.Violation)
		}
		return err
	})
	return median(ns) / 1e6, percentile(ns, 0) / 1e6, err
}

// subsets drives the pruned subset enumeration with a no-op visitor over the
// grounds, sizes and admission bound the checker uses on (g, f). It returns
// the subsets visited per second and the median time of one full pass in ms.
func (d *driver) subsets(g *iabc.Graph, f int) (perS, passMs float64, err error) {
	n, threshold := g.N(), condition.SyncThreshold(f)
	universe := nodeset.Universe(n)
	base := make([]int, n)
	var visited int64
	ns, err := d.repeat("nodeset.subsets", 3, func() error {
		visited = 0
		for size := 0; size <= f; size++ {
			nodeset.SubsetsAscendingSize(universe, size, size, func(fs nodeset.Set) bool {
				ground := universe.Difference(fs)
				for v := 0; v < n; v++ {
					base[v] = g.CountInFrom(v, ground)
				}
				nodeset.SubsetsAscendingSizePruned(ground, 1, ground.Count()/2,
					func(v, k int) bool { return base[v] < threshold+k-1 }, nil,
					func(nodeset.Set) bool { visited++; return true })
				return true
			})
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(visited) / (median(ns) / 1e9), median(ns) / 1e6, nil
}

// pool is a loopback coordinator with in-process workers — what the facade
// builds for WithWorkerPool, built here so its Stats can be read.
type pool struct {
	coord *distrib.Coordinator
	stop  func()
}

func startPool(workers int) (*pool, error) {
	coord := distrib.NewCoordinator(distrib.Options{})
	if err := coord.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker's error after cancel is the connection closing.
			_ = distrib.Work(ctx, coord.Addr(), distrib.WorkerOptions{})
		}()
	}
	return &pool{coord, func() { coord.Close(); cancel(); wg.Wait() }}, nil
}

type distribDrive struct {
	jobs, steals, requeues, stale float64 // per scan
	dispatchUs, dispatchAllocs    float64 // per no-op job
}

// distrib drives the coordinator directly: the workload's scan with a state
// backend, to read the scheduling counters the facade does not return, and
// no-op jobs for the bare lease round trip.
func (d *driver) distrib(g *iabc.Graph, f, workers int) (distribDrive, error) {
	var out distribDrive
	half := *d
	half.budget = d.budget / 2
	var scans float64
	var stats distrib.Stats
	_, err := half.repeat("distrib.scan", 2, func() error {
		p, err := startPool(workers)
		if err != nil {
			return err
		}
		defer p.stop()
		res, err := p.coord.CheckScan(context.Background(), g, f, condition.SyncThreshold(f), condition.ScanOptions{Store: statestore.NewMem()})
		if err != nil {
			return err
		}
		if !res.Satisfied {
			return fmt.Errorf("driven scan reported a violation")
		}
		s := p.coord.Stats()
		stats.JobsGranted += s.JobsGranted
		stats.JobsStolen += s.JobsStolen
		stats.LeasesRequeued += s.LeasesRequeued
		stats.StaleReports += s.StaleReports
		scans++
		return nil
	})
	if err != nil {
		return out, err
	}
	out.jobs, out.steals = float64(stats.JobsGranted)/scans, float64(stats.JobsStolen)/scans
	out.requeues, out.stale = float64(stats.LeasesRequeued)/scans, float64(stats.StaleReports)/scans

	const jobs = 2000
	p, err := startPool(workers)
	if err != nil {
		return out, err
	}
	defer p.stop()
	var allocs []float64
	ns, err := half.repeat("distrib.dispatch", 3, func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := p.coord.DispatchNoop(context.Background(), jobs)
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/jobs)
		return err
	})
	if err != nil {
		return out, err
	}
	out.dispatchUs, out.dispatchAllocs = median(ns)/1e3/jobs, median(allocs)
	return out, nil
}

type dirWritesDrive struct{ p50us, p99us, msPerOp float64 }

// dirWrites replays one op's journal — its write sizes, in order — against a
// directory backend under dir, and returns the latency of a write and the
// time the whole journal takes.
func (d *driver) dirWrites(dir string, sizes []int) (dirWritesDrive, error) {
	stateDir, err := os.MkdirTemp(dir, "drive-state-")
	if err != nil {
		return dirWritesDrive{}, err
	}
	defer os.RemoveAll(stateDir)
	store, err := statestore.NewDir(stateDir)
	if err != nil {
		return dirWritesDrive{}, err
	}
	largest := 0
	for _, n := range sizes {
		if n > largest {
			largest = n
		}
	}
	payload := make([]byte, largest)
	var writeUs []float64
	ns, err := d.repeat("statestore.dir_writes", 3, func() error {
		for _, n := range sizes {
			start := time.Now()
			if err := store.Write(context.Background(), "scan/checkpoint", payload[:n]); err != nil {
				return err
			}
			writeUs = append(writeUs, float64(time.Since(start))/1e3)
		}
		return nil
	})
	return dirWritesDrive{percentile(writeUs, 0.5), percentile(writeUs, 0.99), median(ns) / 1e6}, err
}

// graphs drives the workload's graph constructors and Graph.Encode.
func (d *driver) graphs(build func() ([]*iabc.Graph, error)) (buildMs, encodeUs float64, err error) {
	half := *d
	half.budget = d.budget / 2
	const reps = 20
	var gs []*iabc.Graph
	bns, err := half.repeat("graph.build", 5, func() error {
		for i := 0; i < reps; i++ {
			built, err := build()
			if err != nil {
				return err
			}
			gs = built
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	ens, err := half.repeat("graph.encode", 5, func() error {
		for i := 0; i < reps; i++ {
			for _, g := range gs {
				driveSink += float64(len(g.Encode()))
			}
		}
		return nil
	})
	return median(bns) / 1e6 / reps, median(ens) / 1e3 / reps, err
}
