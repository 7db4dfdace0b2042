package main

// The per-layer pass: the workload's ops rerun with the seams installed,
// interleaved with untraced ops and with one-worker variants, and then the
// direct drives of the layers on the workload's path. End-to-end numbers
// never come from here.

import (
	"context"
	"strings"
	"time"

	"iabc"
)

const (
	// wireFrameBytes is one protocol message on the TCP transport: a 4-byte
	// length prefix and a 32-byte payload.
	wireFrameBytes = 36
	// ruleSamples is how many real rule inputs one capture op keeps.
	ruleSamples = 2048
)

// clockBiasNs is what a seam measures around an empty call: the part of the
// two clock reads that falls inside the interval. It is subtracted per call,
// or a 40 ns rule update would read as 40 ns plus the clock.
func clockBiasNs() float64 {
	var c layerCounter
	const n = 200000
	for i := 0; i < n; i++ {
		c.observe(time.Now())
	}
	return float64(c.busyNs.Load()) / n
}

// opKind is one of the op variants the traced stretch cycles through. They
// are interleaved op by op, so that the ratios between them (tracing
// overhead, worker speed-up) compare ops that saw the same host state.
type opKind struct {
	label   string // root span name
	traced  bool
	workers int // 0: the workload's own count
}

var (
	kindUntraced = opKind{"op:untraced", false, 0}
	kindTraced   = opKind{"op", true, 0}
	kindOne      = opKind{"op:workers=1", true, 1}
)

type layerAgg struct{ calls, busyNs, errs int64 }

// add folds one op's counter in, with the clock bias removed from the busy
// time, and returns that op's busy time.
func (a *layerAgg) add(c *layerCounter, bias float64) int64 {
	calls := c.calls.Load()
	b := int64(float64(c.busyNs.Load()) - bias*float64(calls))
	if b < 0 {
		b = 0
	}
	a.calls += calls
	a.busyNs += b
	a.errs += c.errs.Load()
	return b
}

// kindAgg sums what the seams and results showed over the ops of one kind.
type kindAgg struct {
	ops                                 int
	spanNs                              int64
	durMs, work, msgs                   []float64
	ruleBusyNs                          []float64 // per op
	mallocs, allocBytes                 uint64
	rule, adv, delay, send              layerAgg
	storeWrites, storeReads, storeBytes int64
	storeBusyNs                         int64
	roundGapsNs                         []int64
	storeSizes                          []int // the write sizes of the kind's last op
	chaosSent, chaosDropped             int64
	rounds, deliveries, resends         int64
	abandoned, outDropped, clusterNs    int64
	candidates, pruned, memoHits        int64
	asyncDeliveries                     int64
}

func (a *kindAgg) p50ms() float64 { return median(a.durMs) }

// record folds one finished op into the aggregate and, for a traced op,
// writes its root span and one child span per layer that was called.
func (a *kindAgg) record(k opKind, rec *recorder, workload string, o opDone, bias float64) {
	id := rec.root(k.label, workload, o.index, o.start, o.end, 1)
	a.ops++
	a.spanNs += int64(o.end.Sub(o.start))
	a.durMs = append(a.durMs, float64(o.end.Sub(o.start))/1e6)
	a.work = append(a.work, o.res.work)
	a.mallocs += o.mallocs
	a.allocBytes += o.allocBytes
	r := o.res
	if c := r.cluster; c != nil && r.err == nil {
		a.msgs = append(a.msgs, float64(c.Deliveries)/float64(r.minRound))
		a.rounds += int64(r.minRound)
		a.deliveries += c.Deliveries
		a.resends += c.Resends
		a.abandoned += c.Abandoned
		a.outDropped += c.OutDropped
		a.clusterNs += int64(c.Elapsed)
	}
	a.candidates += r.check.CandidatesExamined
	a.pruned += r.check.CandidatesPruned
	a.memoHits += r.check.MemoHits
	a.asyncDeliveries += int64(r.deliveries)
	s := o.seams
	if s == nil {
		return
	}
	for _, l := range []struct {
		name string
		c    *layerCounter
		agg  *layerAgg
	}{
		{"core.update", &s.ruleC, &a.rule},
		{"adversary.write", &s.advC, &a.adv},
		{"async.delay_policy", &s.delayC, &a.delay},
		{"transport.send", &s.sendC, &a.send},
	} {
		if n := l.c.calls.Load(); n > 0 {
			rec.child(id, l.name, l.agg.add(l.c, bias), n)
		}
	}
	a.ruleBusyNs = append(a.ruleBusyNs, float64(a.rule.busyNs)-sum(a.ruleBusyNs))
	if n := s.store.writes + s.store.reads; n > 0 {
		rec.child(id, "statestore.call", s.store.busyNs, n)
		a.storeWrites += s.store.writes
		a.storeReads += s.store.reads
		a.storeBytes += s.store.bytes
		a.storeBusyNs += s.store.busyNs
		a.storeSizes = s.store.sizes
	}
	a.roundGapsNs = append(a.roundGapsNs, s.roundGapsNs...)
	if s.chaos != nil {
		st := s.chaos.Stats()
		a.chaosSent += st.Sent
		a.chaosDropped += st.Dropped
	}
}

// selfShare is what is left of a span's processor time once its children's
// busy times are taken out, as a share of it and never below zero.
func selfShare(capacityNs float64, childrenBusyNs ...int64) float64 {
	self := capacityNs
	for _, b := range childrenBusyNs {
		self -= float64(b)
	}
	if self < 0 || capacityNs <= 0 {
		return 0
	}
	return self / capacityNs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// atLeastOne floors an op count at one.
func atLeastOne(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// tracedPass is the separate pass for the per-layer numbers. It runs within
// about sc.seconds and reports every per-layer metric, 0 for the layers not
// on the workload's path. Ops that fail are tallied; they do not end the pass.
func tracedPass(ctx context.Context, w *workloadDef, e *env, sc scale, rec *recorder) (*result, error) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	res := &result{Name: w.name, WorkUnit: w.unit, CalibMs: float64(calibrate()) / 1e6, PerLayer: m}
	m["host.calib_ms"] = res.CalibMs
	bias := clockBiasNs()

	inst, _, err := setUp(ctx, w, e, sc)
	if err != nil {
		return nil, err
	}
	sh := inst.shape
	share := func(frac float64) time.Duration { return time.Duration(frac * sc.seconds * float64(time.Second)) }

	// The traced stretch: a quarter of the untraced pass's op floor per kind.
	kinds := []opKind{kindUntraced, kindTraced}
	if sh.workers > 1 && !strings.HasPrefix(w.name, "cluster_") {
		kinds = append(kinds, kindOne)
	}
	aggs := make([]*kindAgg, len(kinds))
	for i := range aggs {
		aggs[i] = &kindAgg{}
	}
	p := runOps(ctx, inst, sc.warmups, atLeastOne(sc.minOps/4)*len(kinds), share(0.55),
		func(n int) (*seams, int) {
			k := kinds[n%len(kinds)]
			if !k.traced {
				return nil, k.workers
			}
			return &seams{}, k.workers
		},
		func(n int, o opDone) { aggs[n%len(kinds)].record(kinds[n%len(kinds)], rec, w.name, o, bias) })
	res.tally(p)
	next := sc.warmups + p.attempted()
	plain, agg := aggs[0], aggs[1]
	one := agg // the one-worker variant is the op itself where there is one worker
	if len(kinds) == 3 {
		one = aggs[2]
	}
	ops := float64(agg.ops)
	// Shares are of the processor time an untraced op has: its median span
	// times its worker count. The traced twin's span would do for a
	// denominator only if the seams cost nothing; on sweep_plane they double it.
	capacityNs := plain.p50ms() * 1e6 * ops * float64(sh.workers)
	// The interleaved untraced ops are the pass's sample of plain op times.
	m["op_p50_ms"], m["op_p90_ms"] = plain.p50ms(), percentile(plain.durMs, 0.9)
	m["trace.overhead_ratio"] = ratio(agg.p50ms(), plain.p50ms())
	m["fail_share"] = ratio(float64(p.failed), float64(p.attempted()))
	m["core.update_calls_per_op"] = float64(agg.rule.calls) / ops
	m["core.update_busy_share"] = ratio(float64(agg.rule.busyNs), capacityNs)
	m["adversary.write_calls_per_op"] = float64(agg.adv.calls) / ops
	m["adversary.write_busy_share"] = ratio(float64(agg.adv.busyNs), capacityNs)

	d := &driver{rec: rec, workload: w.name, budget: share(0.05)}
	// The two drives that are reconciled with op spans get three times the
	// time: their best batch has to fall into a quiet moment of the host.
	long := &driver{rec: rec, workload: w.name, budget: share(0.15)}
	if m["graph.build_ms"], m["graph.encode_us"], err = d.graphs(inst.buildGraphs); err != nil {
		return nil, err
	}
	if sh.usesRule {
		// One more op, not measured, hands the rule drive real inputs.
		perOp := int(one.rule.calls) / atLeastOne(one.ops)
		if w.name == "sweep_replay" {
			perOp = 8 * replayRounds * sweepN // its Matrix ops cannot carry the rule seam
		}
		capture := &ruleCapture{every: uint64(atLeastOne(perOp / ruleSamples)), state: uint64(e.seed)*2685821657736338717 + 1}
		if r := inst.op(ctx, next, &seams{capture: capture}, 1); r.err != nil {
			res.Attempted, res.Failed = res.Attempted+1, res.Failed+1
		}
		next++
		var bestNs float64
		if m["core.update_ns"], bestNs, err = long.ruleUpdateNs(capture.samples); err != nil {
			return nil, err
		}
		// The drive's prediction over the seam's measurement, where calls
		// run on one thread and the seam's wall time is the rule's own (a
		// cluster's actors are descheduled inside the seam's interval). Best
		// batch against best op: the two ran seconds apart, and what a busy
		// neighbour adds to either it only ever adds.
		if !strings.HasPrefix(w.name, "cluster_") && one.ops > 0 {
			m["core.reconcile_ratio"] = ratio(bestNs*float64(one.rule.calls)/float64(one.ops), percentile(one.ruleBusyNs, 0))
		}
	}

	switch {
	case strings.HasPrefix(w.name, "sweep_"):
		m["sim.self_share"] = selfShare(capacityNs, agg.rule.busyNs, agg.adv.busyNs)
		m["sim.worker_speedup"] = ratio(one.p50ms(), agg.p50ms())
		m["sim.allocs_per_op"] = float64(agg.mallocs) / ops
		if w.name == "sweep_replay" {
			m["sim.replay_vecrounds_per_s"] = ratio(sum(agg.work), float64(agg.spanNs)/1e9)
		}

	case w.name == "async_run":
		m["async.events_per_s"] = ratio(float64(agg.asyncDeliveries), float64(agg.spanNs)/1e9)
		m["async.self_share"] = selfShare(capacityNs, agg.rule.busyNs, agg.adv.busyNs, agg.delay.busyNs)
		m["async.allocs_per_op"] = float64(agg.mallocs) / ops
		if m["quorum.put_ns"], m["quorum.gather_ns"], err = d.quorumNs(); err != nil {
			return nil, err
		}

	case w.name == "check_regular" || w.name == "distrib_scan":
		m["condition.candidates_per_s"] = ratio(float64(agg.candidates), float64(agg.spanNs)/1e9)
		m["condition.pruned_share"] = ratio(float64(agg.pruned), float64(agg.candidates))
		m["condition.memo_hits_per_op"] = float64(agg.memoHits) / ops
		m["condition.allocs_per_op"] = float64(agg.mallocs) / ops
		var bestScanMs float64
		if m["condition.scan_ms"], bestScanMs, err = long.scanMs(sh.scanG, sh.scanF); err != nil {
			return nil, err
		}
		var passMs float64
		if m["nodeset.subsets_per_s"], passMs, err = d.subsets(sh.scanG, sh.scanF); err != nil {
			return nil, err
		}
		m["nodeset.enum_share"] = ratio(passMs, m["condition.scan_ms"])
		if w.name == "check_regular" {
			m["condition.worker_speedup"] = ratio(one.p50ms(), agg.p50ms())
			m["condition.reconcile_ratio"] = ratio(bestScanMs, percentile(one.durMs, 0))
			break
		}
		m["distrib.worker_speedup"] = ratio(one.p50ms(), agg.p50ms())
		m["statestore.writes_per_op"] = float64(agg.storeWrites) / ops
		m["statestore.reads_per_op"] = float64(agg.storeReads) / ops
		m["statestore.write_bytes_per_op"] = float64(agg.storeBytes) / ops
		m["statestore.busy_share"] = ratio(float64(agg.storeBusyNs), plain.p50ms()*1e6*ops)
		// What one op's journal costs on the checkout's disk: its write sizes
		// replayed against a directory backend.
		dw, err := d.dirWrites(e.dir, agg.storeSizes)
		if err != nil {
			return nil, err
		}
		m["statestore.write_p50_us"], m["statestore.write_p99_us"] = dw.p50us, dw.p99us
		m["statestore.dir_ms_per_op"] = dw.msPerOp
		// The same scan in process at the same worker count is what the
		// lease protocol and the journal are overhead on.
		var inProc []float64
		if _, err := d.repeat("condition.check_inprocess", 5, func() error {
			start := time.Now()
			_, err := iabc.Check(ctx, sh.scanG, sh.scanF, iabc.WithWorkers(sh.workers))
			inProc = append(inProc, float64(time.Since(start))/1e6)
			return err
		}); err != nil {
			return nil, err
		}
		m["distrib.overhead_ratio"] = ratio(agg.p50ms(), median(inProc))
		dd, err := d.distrib(sh.scanG, sh.scanF, sh.workers)
		if err != nil {
			return nil, err
		}
		m["distrib.jobs_per_op"], m["distrib.steals_per_op"] = dd.jobs, dd.steals
		m["distrib.requeues_per_op"], m["distrib.stale_reports_per_op"] = dd.requeues, dd.stale
		m["distrib.dispatch_us"], m["distrib.dispatch_allocs_per_job"] = dd.dispatchUs, dd.dispatchAllocs

	case strings.HasPrefix(w.name, "cluster_"):
		rounds := float64(agg.rounds)
		m["msgs_per_round"] = median(agg.msgs)
		m["node.rounds_per_s"] = ratio(rounds, float64(agg.clusterNs)/1e9)
		m["node.deliveries_per_round"] = ratio(float64(agg.deliveries), rounds)
		m["node.resends_per_round"] = ratio(float64(agg.resends), rounds)
		quorums := float64((clusterN - 1) * (clusterN - 2)) // 7 fault-free nodes wait for 6 values each
		m["node.useful_delivery_ratio"] = ratio(rounds*quorums, float64(agg.deliveries))
		m["node.abandoned_per_op"] = float64(agg.abandoned) / ops
		m["node.outdropped_per_op"] = float64(agg.outDropped) / ops
		gapsUs := toFloat(agg.roundGapsNs, 1e-3)
		m["node.round_gap_p50_us"], m["node.round_gap_p99_us"] = percentile(gapsUs, 0.5), percentile(gapsUs, 0.99)
		m["node.alloc_kb_per_round"] = ratio(float64(agg.allocBytes)/1e3, rounds)
		m["transport.sends_per_round"] = ratio(float64(agg.send.calls), rounds)
		m["transport.send_busy_us_per_round"] = ratio(float64(agg.send.busyNs)/1e3, rounds)
		m["transport.send_errors_per_op"] = float64(agg.send.errs) / ops
		m["transport.chaos_drop_share"] = ratio(float64(agg.chaosDropped), float64(agg.chaosSent))
		if m["quorum.put_ns"], m["quorum.gather_ns"], err = d.quorumNs(); err != nil {
			return nil, err
		}
		if m["transport.inproc_send_ns"], err = d.inprocSendNs(); err != nil {
			return nil, err
		}
		if w.name == "cluster_tcp" {
			m["transport.wire_bytes_per_round"] = m["transport.sends_per_round"] * wireFrameBytes
			td, err := d.tcp()
			if err != nil {
				return nil, err
			}
			m["transport.tcp_send_ns"], m["transport.tcp_setup_ms"] = td.sendNs, td.setupMs
			m["transport.tcp_rtt_p50_us"], m["transport.tcp_rtt_p99_us"] = td.rttP50us, td.rttP99us
		}
		// The single-node baseline: the same protocol in the simulator.
		ainst, err := workloadByName("async_run").setup(e)
		if err != nil {
			return nil, err
		}
		ap := runOps(ctx, ainst, 0, atLeastOne(sc.minOps/20), share(0.05), nil, nil)
		res.tally(ap)
		asyncRoundMs := percentile(toFloat(ap.durNs, 1e-6), 0.5) / asyncRounds
		m["node.overhead_vs_async"] = ratio(ratio(float64(agg.clusterNs)/1e6, rounds), asyncRoundMs)
	}
	return res, nil
}
