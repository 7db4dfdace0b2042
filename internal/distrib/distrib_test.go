package distrib

// The package's conformance battery: everything here compares a distributed
// run against the single-process oracle — same verdict, same witness, same
// work counters, same bit-exact traces — under clean runs, worker death,
// zombie leases, stealing, and checkpoint resume.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/statestore"
	"iabc/internal/topology"
	"iabc/internal/wire"
)

func testGraph(t *testing.T, kind string, n, f int) *graph.Graph {
	t.Helper()
	var g *graph.Graph
	var err error
	switch kind {
	case "core":
		g, err = topology.CoreNetwork(n, f)
	case "chord":
		g, err = topology.Chord(n, f)
	case "cycle":
		g, err = topology.Circulant(n, []int{1})
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testCluster starts a coordinator on a loopback port plus n in-process
// workers; everything is torn down via t.Cleanup.
func testCluster(t *testing.T, opts Options, workers int) *Coordinator {
	t.Helper()
	c := NewCoordinator(opts)
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Work(ctx, c.Addr(), WorkerOptions{})
		}()
	}
	t.Cleanup(func() {
		cancel()
		c.Close()
		wg.Wait()
	})
	return c
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDistributedCheckMatchesOracle pins the headline property on both
// verdicts: a check distributed across three workers returns a Result
// deep-equal to the sequential single-process scan — witness, early-exit
// counters, everything.
func TestDistributedCheckMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		kind string
		n, f int
	}{
		{"core", 13, 4},  // satisfied
		{"chord", 7, 2},  // violated
		{"chord", 11, 3}, // violated
	} {
		g := testGraph(t, tc.kind, tc.n, tc.f)
		threshold := condition.SyncThreshold(tc.f)
		want, err := condition.CheckScan(context.Background(), g, tc.f, threshold, condition.ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := testCluster(t, Options{ChunkSize: 64, ReportEvery: 16}, 3)
		got, err := c.CheckScan(context.Background(), g, tc.f, threshold, condition.ScanOptions{})
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", tc.kind, tc.n, tc.f, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%d,%d): distributed result %+v, oracle %+v", tc.kind, tc.n, tc.f, got, want)
		}
	}
}

// TestDistributedCheckKilledWorker kills one of two workers mid-scan (its
// jobs drop with the connection and are requeued); the surviving worker
// finishes and the Result is still oracle-identical.
func TestDistributedCheckKilledWorker(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	c := testCluster(t, Options{ChunkSize: 32, ReportEvery: 8, Lease: 500 * time.Millisecond}, 1)
	doomedCtx, kill := context.WithCancel(context.Background())
	var doomed sync.WaitGroup
	doomed.Add(1)
	go func() {
		defer doomed.Done()
		Work(doomedCtx, c.Addr(), WorkerOptions{})
	}()
	defer func() { kill(); doomed.Wait() }()

	var once sync.Once
	got, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{
		// First progress report → the doomed worker is killed mid-phase.
		OnProgress: func(condition.Progress) { once.Do(kill) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result after worker kill %+v, oracle %+v", got, want)
	}
}

// cancelOnWrite cancels the check's context from inside the first journal
// write (the coordinator journals through ScanFrontier.CompleteSpan while it
// holds its lock, before the reported span is acknowledged). That orders the
// cancellation before the scan can complete, whatever the scheduler does: a
// cancel raced against a ~1 ms scan from a progress callback sometimes lost.
type cancelOnWrite struct {
	statestore.Backend
	cancel context.CancelFunc
}

func (b cancelOnWrite) Write(ctx context.Context, key string, data []byte) error {
	b.cancel()
	return b.Backend.Write(ctx, key, data)
}

// TestDistributedCheckResume interrupts a durable distributed check, then
// completes it in a second run: the composed Result matches the oracle with
// FaultSetsResumed recording the replayed prefix, and a third run is a pure
// cache hit — the same provenance the single-process scan reports.
func TestDistributedCheckResume(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := statestore.NewMem()
	c := testCluster(t, Options{ChunkSize: 16, ReportEvery: 8}, 2)

	ctx, cancel := context.WithCancel(context.Background())
	_, err = c.CheckScan(ctx, g, 4, threshold, condition.ScanOptions{
		Store: cancelOnWrite{store, cancel}, CheckpointEvery: 1,
	})
	if err == nil {
		t.Fatal("interrupted distributed check returned no error")
	}

	got, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got.FaultSetsResumed == 0 {
		t.Fatal("resumed check replayed no prefix")
	}
	adjusted := got
	adjusted.FaultSetsResumed = 0
	if !reflect.DeepEqual(adjusted, want) {
		t.Fatalf("resumed result %+v, oracle %+v", got, want)
	}

	cached, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !cached.CacheHit || cached.Satisfied != want.Satisfied {
		t.Fatalf("third run not served from verdict cache: %+v", cached)
	}
}

// TestDistributedCheckPersistsLocalRecords pins the byte identity of what
// the two scans leave in the store: on a satisfied and a violated graph, and
// on a 63-node one past binomTable, a single-process CheckScan and a
// distributed one over separate stores end with the same Result and the
// same keys holding the same bytes, since both settle through one
// ScanFrontier over one index space.
func TestDistributedCheckPersistsLocalRecords(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, Options{ChunkSize: 16, ReportEvery: 8}, 3)
	for _, tc := range []struct {
		kind string
		n, f int
	}{
		{"core", 13, 4},  // satisfied
		{"chord", 11, 3}, // violated
		{"cycle", 63, 1}, // violated, n > 62
	} {
		g := testGraph(t, tc.kind, tc.n, tc.f)
		threshold := condition.SyncThreshold(tc.f)
		local, dist := statestore.NewMem(), statestore.NewMem()
		wantRes, err := condition.CheckScan(ctx, g, tc.f, threshold, condition.ScanOptions{Workers: 1, Store: local, CheckpointEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := c.CheckScan(ctx, g, tc.f, threshold, condition.ScanOptions{Store: dist, CheckpointEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("%s(%d,%d): distributed %+v, local %+v", tc.kind, tc.n, tc.f, gotRes, wantRes)
		}
		want, got := storeContents(t, local), storeContents(t, dist)
		if len(want) == 0 {
			t.Fatalf("%s(%d,%d): local scan persisted nothing", tc.kind, tc.n, tc.f)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%d,%d): distributed store %q, local store %q", tc.kind, tc.n, tc.f, got, want)
		}
	}
}

// storeContents reads every record of a store, by key.
func storeContents(t *testing.T, store *statestore.Mem) map[string]string {
	t.Helper()
	ctx := context.Background()
	keys, err := store.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		v, err := store.Read(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = string(v)
	}
	return out
}

// TestZombieLeaseFencing drives a raw wire client that takes a job and
// stalls past its lease: the range is requeued and finished by a live
// worker, and the zombie's late report is answered with a cancel ack and
// never journaled — the Result stays oracle-identical.
func TestZombieLeaseFencing(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(Options{Lease: 100 * time.Millisecond, ChunkSize: 16, ReportEvery: 8})
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type checkOut struct {
		res condition.Result
		err error
	}
	resCh := make(chan checkOut, 1)
	go func() {
		res, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{})
		resCh <- checkOut{res, err}
	}()

	// The zombie speaks just enough protocol to hold a lease.
	nc, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var scratch []byte
	mustRead := func(wantKind byte) []byte {
		t.Helper()
		kind, payload, sc, err := readFrame(br, scratch)
		scratch = sc
		if err != nil || kind != wantKind {
			t.Fatalf("zombie read kind %d err %v, want kind %d", kind, err, wantKind)
		}
		return payload
	}
	if _, err := nc.Write(appendHello(nil)); err != nil {
		t.Fatal(err)
	}
	mustRead(kindHello)
	if _, err := nc.Write(appendJobRequest(nil)); err != nil {
		t.Fatal(err)
	}
	grant, err := decodeJobGrant(mustRead(kindJobGrant))
	if err != nil {
		t.Fatal(err)
	}

	// Stall until the lease sweeper requeues the zombie's range.
	waitUntil(t, "lease requeue", func() bool { return c.Stats().LeasesRequeued >= 1 })

	// The late report must be fenced: cancel ack, nothing journaled.
	if _, err := nc.Write(appendReportOK(nil, reportOK{
		jobID: grant.jobID, through: grant.to,
		counters: condition.WorkCounters{Candidates: 1 << 40}, // poison: journaling this would corrupt the totals
	})); err != nil {
		t.Fatal(err)
	}
	a, err := decodeAck(mustRead(kindAck))
	if err != nil {
		t.Fatal(err)
	}
	if !a.cancel {
		t.Fatal("zombie report was not answered with a cancel ack")
	}

	// A live worker finishes the scan, re-running the zombie's range.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go Work(ctx, c.Addr(), WorkerOptions{})

	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Fatalf("result with zombie lease %+v, oracle %+v", out.res, want)
	}
	if s := c.Stats(); s.StaleReports == 0 {
		t.Fatalf("no stale report counted: %+v", s)
	}
}

// wireClient is a hand-driven protocol client for scheduling tests that
// need exact control over when reports happen.
type wireClient struct {
	t       *testing.T
	nc      net.Conn
	br      *bufio.Reader
	scratch []byte
}

func dialWire(t *testing.T, addr string) *wireClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	w := &wireClient{t: t, nc: nc, br: bufio.NewReader(nc)}
	w.write(appendHello(nil))
	w.read(kindHello)
	return w
}

func (w *wireClient) write(frame []byte) {
	w.t.Helper()
	if _, err := w.nc.Write(frame); err != nil {
		w.t.Fatal(err)
	}
}

func (w *wireClient) read(wantKind byte) []byte {
	w.t.Helper()
	kind, payload, sc, err := readFrame(w.br, w.scratch)
	w.scratch = sc
	if err != nil || kind != wantKind {
		w.t.Fatalf("read kind %d err %v, want kind %d", kind, err, wantKind)
	}
	return payload
}

func (w *wireClient) requestJob() jobGrant {
	w.t.Helper()
	w.write(appendJobRequest(nil))
	g, err := decodeJobGrant(w.read(kindJobGrant))
	if err != nil {
		w.t.Fatal(err)
	}
	return g
}

// TestStealSplitsLargestLease pins the steal geometry in spans on core(13,4),
// whose fault sets fall into a few orbits: client A leases the whole
// enumeration with a first slice of two spans, and client B's request steals
// the far half of the spans beyond that slice, a split that halving the
// fault sets would put elsewhere.
func TestStealSplitsLargestLease(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	sp := testSpans(t, g, 4)
	total := condition.NumFaultSets(13, 4)
	safe := sp.End(0, 2)
	mid := sp.End(safe, sp.Count(safe, total)/2)
	if mid == safe+(total-safe)/2 {
		t.Fatalf("the span split %d is the fault-set split", mid)
	}
	checkStealGeometry(t, g, 4, 2, safe, mid)
}

// TestStealSplitsLargestLeaseIdentityGroup is TestStealSplitsLargestLease
// on a random digraph whose group is trivial, where a span is one fault set,
// so the first slice is reportEvery fault sets and the steal halves the
// fault sets beyond it, as it did before leases counted spans.
func TestStealSplitsLargestLeaseIdentityGroup(t *testing.T) {
	g := asymmetricDigraph(t, 14)
	total := condition.NumFaultSets(14, 3)
	if n := testSpans(t, g, 3).Count(0, total); n != total {
		t.Fatalf("%d spans over %d fault sets: the group is not trivial", n, total)
	}
	const reportEvery = 4
	safe := int64(reportEvery)
	checkStealGeometry(t, g, 3, reportEvery, safe, safe+(total-safe)/2)
}

// testSpans returns the spans of g's index space at f.
func testSpans(t *testing.T, g *graph.Graph, f int) condition.Spans {
	t.Helper()
	s, err := condition.NewShardScanner(g, f, condition.SyncThreshold(f))
	if err != nil {
		t.Fatal(err)
	}
	return s.Spans()
}

// asymmetricDigraph draws a random digraph of n nodes whose automorphism
// group is trivial.
func asymmetricDigraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for {
		g, err := topology.RandomDigraph(n, 0.7, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.AutomorphismGenerators(graph.AutSearchBudget)) == 0 {
			return g
		}
	}
}

// checkStealGeometry drives a steal with hand-driven clients on g at f,
// ReportEvery reportEvery: client A leases the whole enumeration, whose first
// slice must end at safe; client B's request must steal [mid, hi); A learns
// the shrink through the slice its next ack dictates, which ends by mid; and
// after both clients vanish a real worker still produces the oracle Result
// from the requeued remainders.
func checkStealGeometry(t *testing.T, g *graph.Graph, f, reportEvery int, safe, mid int64) {
	t.Helper()
	threshold := condition.SyncThreshold(f)
	want, err := condition.CheckScan(context.Background(), g, f, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpans(t, g, f)

	// One chunk covers the whole enumeration, so the queue drains on the
	// first grant and a second client can only get work by stealing.
	c := NewCoordinator(Options{ChunkSize: 1 << 20, ReportEvery: reportEvery, Lease: 200 * time.Millisecond})
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := make(chan condition.Result, 1)
	go func() {
		res, err := c.CheckScan(context.Background(), g, f, threshold, condition.ScanOptions{})
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()

	a := dialWire(t, c.Addr())
	grantA := a.requestJob()
	if total := condition.NumFaultSets(g.N(), f); grantA.lo != 0 || grantA.hi != total || grantA.to != safe {
		t.Fatalf("client A granted [%d, %d) to %d, want [0, %d) to %d", grantA.lo, grantA.hi, grantA.to, total, safe)
	}

	b := dialWire(t, c.Addr())
	grantB := b.requestJob()
	if grantB.lo != mid || grantB.hi != grantA.hi {
		t.Fatalf("steal granted [%d, %d), want [%d, %d)", grantB.lo, grantB.hi, mid, grantA.hi)
	}
	if s := c.Stats(); s.JobsStolen != 1 {
		t.Fatalf("JobsStolen = %d, want 1", s.JobsStolen)
	}

	// A really scans its first slice (reports journal counters, so they must
	// be earned), and its ack dictates a next slice that ends by mid.
	scanner, err := condition.NewShardScanner(g, f, threshold)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := scanner.ScanRange(context.Background(), grantA.lo, safe)
	if err != nil || rr.Violation >= 0 {
		t.Fatalf("ScanRange: viol %d err %v", rr.Violation, err)
	}
	a.write(appendReportOK(nil, reportOK{jobID: grantA.jobID, through: safe, counters: rr.Satisfied}))
	ackA, err := decodeAck(a.read(kindAck))
	if err != nil {
		t.Fatal(err)
	}
	if next := min(sp.End(safe, int64(reportEvery)), mid); ackA.cancel || ackA.to != next {
		t.Fatalf("ack after steal = %+v, want the slice to %d", ackA, next)
	}

	// Both clients die; their remainders [safe, mid) and [mid, hi) requeue,
	// and a real worker finishes everything to the oracle Result.
	a.nc.Close()
	b.nc.Close()
	waitUntil(t, "requeue after disconnect", func() bool { return c.Stats().LeasesRequeued >= 2 })

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go Work(ctx, c.Addr(), WorkerOptions{})

	got := <-resCh
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result with stealing %+v, oracle %+v", got, want)
	}
}

// TestDistributedMaxFMatchesOracle distributes the full monotone f-sweep,
// composed as the facade composes it (condition.MaxFScan with the
// coordinator as its CheckRunner): best f and every aggregated stat must
// equal the sequential MaxFScan.
func TestDistributedMaxFMatchesOracle(t *testing.T) {
	g := testGraph(t, "chord", 11, 3)
	wantBest, wantStats, err := condition.MaxFScan(context.Background(), g, condition.MaxFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, Options{ChunkSize: 32, ReportEvery: 8}, 2)
	gotBest, gotStats, err := condition.MaxFScan(context.Background(), g, condition.MaxFOptions{CheckRunner: c.CheckScan})
	if err != nil {
		t.Fatal(err)
	}
	if gotBest != wantBest {
		t.Fatalf("distributed maxf = %d, oracle %d", gotBest, wantBest)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("distributed stats %+v, oracle %+v", gotStats, wantStats)
	}
}

// —— distributed sweeps ——

func sweepBase(t *testing.T) sim.Config {
	t.Helper()
	g, err := topology.CoreNetwork(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]float64, 10)
	for i := range initial {
		initial[i] = float64(i) * 1.25
	}
	return sim.Config{
		G: g, F: 2, Faulty: nodeset.FromMembers(10, 0, 1), Initial: initial,
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Hug{High: true},
		MaxRounds: 60, Epsilon: 1e-9, RecordStates: true,
	}
}

func sweepScenarios() []sim.Scenario {
	return []sim.Scenario{
		{Name: "hug-low", Adversary: adversary.Hug{}},
		{Name: "silent", Adversary: adversary.Silent{}},
		{Name: "fixed-high", Adversary: adversary.Fixed{Value: 1e6}},
		{Name: "insider", Adversary: &adversary.Insider{High: true}},
		// Reset to fault-free through a zero-value set, and a per-scenario
		// round budget: both reach the worker already applied.
		{Name: "fault-free", HasFaulty: true},
		{Name: "short", Adversary: adversary.Hug{}, MaxRounds: 7},
	}
}

func assertTraceBits(t *testing.T, label string, want, got *sim.Trace) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: trace nil (want %v, got %v)", label, want != nil, got != nil)
	}
	if got.Rounds != want.Rounds || got.Converged != want.Converged {
		t.Fatalf("%s: rounds/converged = %d/%v, want %d/%v", label, got.Rounds, got.Converged, want.Rounds, want.Converged)
	}
	eq := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d, want %d", label, name, len(b), len(a))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] differs: %x vs %x", label, name, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
	eq("U", want.U, got.U)
	eq("Mu", want.Mu, got.Mu)
	eq("Final", want.Final, got.Final)
	if len(want.States) != len(got.States) {
		t.Fatalf("%s: states length %d, want %d", label, len(got.States), len(want.States))
	}
	for r := range want.States {
		eq("States", want.States[r], got.States[r])
	}
}

// TestDistributedSweepMatchesLocal runs a sweep across two workers and
// compares every trace bit-for-bit against the local sweep; with the Matrix
// engine and extra initial vectors, the replayed finals must match too.
func TestDistributedSweepMatchesLocal(t *testing.T) {
	base := sweepBase(t)
	scens := sweepScenarios()
	ctx := context.Background()

	want, err := sim.Sweep(ctx, base, scens, sim.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, Options{}, 2)
	got, err := c.Sweep(ctx, base, scens, sim.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		assertTraceBits(t, scens[i].Name, want.Traces[i], got.Traces[i])
	}

	// Matrix engine + extras: the SoA replay's final vectors distribute too.
	extras := [][]float64{{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}
	wantM, err := sim.Sweep(ctx, base, scens, sim.SweepOptions{Engine: sim.Matrix{}, Workers: 1, Extras: extras})
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := c.Sweep(ctx, base, scens, sim.SweepOptions{Engine: sim.Matrix{}, Workers: 2, Extras: extras})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		assertTraceBits(t, scens[i].Name+"/matrix", wantM.Traces[i], gotM.Traces[i])
		if len(gotM.Finals[i]) != len(wantM.Finals[i]) {
			t.Fatalf("%s: finals width %d, want %d", scens[i].Name, len(gotM.Finals[i]), len(wantM.Finals[i]))
		}
		for x := range wantM.Finals[i] {
			for j := range wantM.Finals[i][x] {
				if math.Float64bits(gotM.Finals[i][x][j]) != math.Float64bits(wantM.Finals[i][x][j]) {
					t.Fatalf("%s: finals[%d][%d] differ", scens[i].Name, x, j)
				}
			}
		}
	}
}

// TestDistributedSweepResume composes the distributed sweep with sweep-level
// checkpointing: a second distributed run over the same store resumes every
// scenario without granting a single job.
func TestDistributedSweepResume(t *testing.T) {
	base := sweepBase(t)
	scens := sweepScenarios()
	ctx := context.Background()
	want, err := sim.Sweep(ctx, base, scens, sim.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	store := statestore.NewMem()
	c := testCluster(t, Options{}, 2)
	if _, err := c.Sweep(ctx, base, scens, sim.SweepOptions{Workers: 2, Store: store}); err != nil {
		t.Fatal(err)
	}
	granted := c.Stats().JobsGranted

	res, err := c.Sweep(ctx, base, scens, sim.SweepOptions{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosResumed != len(scens) {
		t.Fatalf("ScenariosResumed = %d, want %d", res.ScenariosResumed, len(scens))
	}
	if c.Stats().JobsGranted != granted {
		t.Fatalf("fully resumed sweep granted %d jobs", c.Stats().JobsGranted-granted)
	}
	for i := range scens {
		assertTraceBits(t, scens[i].Name, want.Traces[i], res.Traces[i])
	}
}

// TestDistributedSweepRejectsUnnamedAdversary pins the distributability
// boundary: strategies that cannot be reconstructed from a canonical name
// are rejected up front with a descriptive error.
func TestDistributedSweepRejectsUnnamedAdversary(t *testing.T) {
	base := sweepBase(t)
	c := testCluster(t, Options{}, 1)
	_, err := c.Sweep(context.Background(), base, []sim.Scenario{
		{Name: "custom", Adversary: adversary.Extremes{Amplitude: 50}},
	}, sim.SweepOptions{})
	if err == nil || !strings.Contains(err.Error(), "not a named built-in") {
		t.Fatalf("unnamed adversary error = %v", err)
	}
}

// TestResolveSpecRejectsOutOfRangeFaulty: a sweep spec naming a fault id
// outside [0, n) is an error on the worker, never a panic. The payload is
// hostile in both the per-scenario and the base-plus-overrides layout.
func TestResolveSpecRejectsOutOfRangeFaulty(t *testing.T) {
	const payload = `{"kind":"sweep","sweep":{"graph":"n 3\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n",` +
		`"engine":"sequential","rule":"mean","f":0,"faulty":[7],"has_faulty":true,"adversary":"silent","has_adversary":true,` +
		`"initial":[0,0,0],"max_rounds":1,"epsilon":0,` +
		`"scenarios":[{"name":"x","adversary":"silent","rule":"mean","f":0,"max_rounds":1,"epsilon":0,"faulty":[7],"has_faulty":true,"initial":[0,0,0]}]}}`
	if _, err := resolveSpec([]byte(payload)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("resolveSpec error = %v, want an out-of-range fault id", err)
	}
}

// TestDispatchNoop pushes empty jobs through the full grant/report/ack cycle
// — the benchmark kernel's correctness check.
func TestDispatchNoop(t *testing.T) {
	c := testCluster(t, Options{}, 2)
	if err := c.DispatchNoop(context.Background(), 300); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.JobsGranted < 300 {
		t.Fatalf("granted %d jobs, want >= 300", s.JobsGranted)
	}
}

// TestWorkerTreatsResetAsHangUp: a coordinator that closes with one of the
// worker's frames still unread hangs up with a TCP reset, not a FIN. The
// worker must take that for the clean shutdown it is — `iabc work` used to
// exit non-zero at the end of a scan whose last verdict left jobs in flight.
func TestWorkerTreatsResetAsHangUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(nc)
		if kind, _, _, err := readFrame(br, nil); err != nil || kind != kindHello {
			nc.Close()
			return
		}
		nc.Write(appendHello(nil))
		// One byte of the job request, read past the bufio layer, proves the
		// frame arrived; the rest of it stays unread in the socket, which
		// turns the close into a reset.
		nc.Read(make([]byte, 1))
		nc.Close()
	}()
	if err := Work(context.Background(), ln.Addr().String(), WorkerOptions{}); err != nil {
		t.Fatalf("worker reported the coordinator's hang-up as a failure: %v", err)
	}
}

// TestPoolChunkingsMatchOracle runs checks through in-memory pools of 1–4
// workers, each connection resolving its own spec and scanner, with leases
// and reports from one span wide to many, on a satisfied and a
// violating core network (count vectors) and a violating circulant (a
// per-index table): every Result is the local oracle's.
func TestPoolChunkingsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		kind    string
		n, k, f int // topology kind(n, k), checked at f
	}{{"core", 13, 4, 4}, {"core", 13, 4, 5}, {"chord", 12, 2, 2}} {
		g := testGraph(t, tc.kind, tc.n, tc.k)
		threshold := condition.SyncThreshold(tc.f)
		want, err := condition.CheckScan(context.Background(), g, tc.f, threshold, condition.ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			chunk := []int{1, 1 + rng.Intn(64)}[workers%2]
			got, _, err := pooledCheck(t, Options{ChunkSize: chunk, ReportEvery: 1 + rng.Intn(chunk)}, workers, g, tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s(%d,%d) f=%d, %d workers, chunk %d: pooled result %+v, oracle %+v", tc.kind, tc.n, tc.k, tc.f, workers, chunk, got, want)
			}
		}
	}
}

// TestWorkerTreatsClosedPipeAsHangUp is TestWorkerTreatsResetAsHangUp over an
// in-memory connection: the coordinator's end closes with the worker's job
// request unread, so the worker's write fails with io.ErrClosedPipe, and the
// worker must take that for the clean shutdown it is. Its own close reads as
// io.ErrClosedPipe too, so a worker whose context is canceled while it waits
// on the coordinator must still report the cancellation.
func TestWorkerTreatsClosedPipeAsHangUp(t *testing.T) {
	// serve answers the hello on an in-memory connection, then closes its
	// end once hangUp is closed, without reading another frame.
	serve := func(hangUp <-chan struct{}) func(context.Context) (net.Conn, error) {
		wc, sc := net.Pipe()
		go func() {
			defer sc.Close()
			if kind, _, _, err := readFrame(bufio.NewReader(sc), nil); err != nil || kind != kindHello {
				return
			}
			if _, err := sc.Write(appendHello(nil)); err != nil {
				return
			}
			<-hangUp
		}()
		return func(context.Context) (net.Conn, error) { return wc, nil }
	}
	now := make(chan struct{})
	close(now)
	if err := work(context.Background(), serve(now)); err != nil {
		t.Fatalf("worker reported the coordinator's hang-up as a failure: %v", err)
	}

	// The coordinator never reads the job request; the close that ends the
	// worker is its own, from the canceled context.
	never := make(chan struct{})
	defer close(never)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- work(ctx, serve(never)) }()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("canceled worker returned %v, want %v", err, context.Canceled)
	}
}

// TestDistributedCheckKilledPipeWorker is TestDistributedCheckKilledWorker
// for the in-memory carrier: the only worker has its connection closed on
// the first report, mid-lease; the coordinator requeues the lease's
// unacknowledged remainder, a second worker finishes it, and the Result is
// still the oracle's.
func TestDistributedCheckKilledPipeWorker(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{ChunkSize: 32, ReportEvery: 8})
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	defer func() {
		cancel()
		c.Close()
		workers.Wait()
	}()
	doomed, err := c.connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	run := func(connect func(context.Context) (net.Conn, error)) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			work(ctx, connect)
		}()
	}
	run(func(context.Context) (net.Conn, error) { return doomed, nil })
	waitUntil(t, "the doomed worker", func() bool { return c.Stats().WorkersSeen == 1 })

	var once sync.Once
	got, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{
		// The first report acks 8 of the 15 spans core(13,4)'s one lease
		// holds; the lease is still open when the connection closes.
		OnProgress: func(condition.Progress) {
			once.Do(func() {
				doomed.Close()
				run(c.connect)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result after pipe worker kill %+v, oracle %+v", got, want)
	}
	if s := c.Stats(); s.LeasesRequeued == 0 || s.WorkersSeen != 2 {
		t.Fatalf("stats %+v, want a requeued lease and two workers", s)
	}
}

// TestPipePoolAndTCPWorkerShareAPhase: a coordinator serves one phase to an
// in-memory pool of two and a remote worker over TCP at once; all three
// join, and the Result is the oracle's.
func TestPipePoolAndTCPWorkerShareAPhase(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, Options{ChunkSize: 16, ReportEvery: 8}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	pool := make(chan error, 1)
	go func() { pool <- c.RunPool(ctx, 2) }()
	t.Cleanup(func() {
		cancel()
		c.Close()
		<-pool
	})
	waitUntil(t, "three workers", func() bool { return c.Stats().WorkersSeen == 3 })
	got, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-carrier result %+v, oracle %+v", got, want)
	}
	if s := c.Stats(); s.WorkersSeen != 3 {
		t.Fatalf("WorkersSeen = %d, want 3", s.WorkersSeen)
	}
}

// TestResolveSpecRefusesOversizedSweep: a sweep spec whose header declares
// more nodes than a sweep spec may, or that holds no scenario, is refused
// before its graph is built, so the refusal allocates under 1 MB; building
// the graph of n 20000 takes about 100 MB.
func TestResolveSpecRefusesOversizedSweep(t *testing.T) {
	for _, tc := range []struct {
		sweep, want string
	}{
		{`{"graph":"n 20000\n0 1\n","engine":"sequential","scenarios":[{"rule":"mean"}]}`, "20000 nodes"},
		{`{"graph":"n 20000\n0 1\n","engine":"sequential","scenarios":[]}`, "no scenarios"},
		{`{"graph":"n 3\n0 1\n","engine":"sequential"}`, "no scenarios"},
	} {
		payload, err := json.Marshal(jobSpec{Kind: "sweep", Sweep: json.RawMessage(tc.sweep)})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = resolveSpec(payload)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: resolveSpec error %v, want one containing %q", tc.sweep, err, tc.want)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Fatalf("%s: resolveSpec allocated %d bytes refusing the spec, want < 1 MB", tc.sweep, b)
		}
	}
}

// TestResolveSpecRefusesInfeasibleScan: a scan spec whose encoding declares
// more nodes than the checker can scan is refused by the checker's own
// feasibility gate before the graph is decoded — for n − f > 62 and for an
// extent past int64 — so a hostile order allocates under 1 MB, where
// building its graph would take gigabytes.
func TestResolveSpecRefusesInfeasibleScan(t *testing.T) {
	for _, tc := range []struct {
		f    int
		want string
	}{
		{6, "n-f = 200001 > 62"},
		{200000, "overflow int64"},
	} {
		payload, err := json.Marshal(jobSpec{Kind: "scan", Scan: &scanSpec{Graph: "g1:200007;0>1", F: tc.f, Threshold: tc.f + 1}})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = resolveSpec(payload)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("f = %d: resolveSpec error %v, want one containing %q", tc.f, err, tc.want)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Fatalf("f = %d: resolveSpec allocated %d bytes refusing the spec, want < 1 MB", tc.f, b)
		}
	}
}

// pooledCheck runs one check through a fresh coordinator with opts and an
// in-memory pool of workers, and returns its Result and scheduling Stats.
func pooledCheck(t *testing.T, opts Options, workers int, g *graph.Graph, f int) (condition.Result, Stats, error) {
	t.Helper()
	c := NewCoordinator(opts)
	ctx, cancel := context.WithCancel(context.Background())
	pool := make(chan error, 1)
	go func() { pool <- c.RunPool(ctx, workers) }()
	res, err := c.CheckScan(context.Background(), g, f, condition.SyncThreshold(f), condition.ScanOptions{})
	stats := c.Stats()
	cancel()
	c.Close()
	<-pool
	return res, stats, err
}

// TestPooledCheckLeasesSpans pins the lease cadence in spans. core(19,6) at
// f = 6 has 43 796 fault sets in 28 orbits, so the default ChunkSize and
// ReportEvery lease it as one job, where counting fault sets took 43 grants
// and ~171 reports; leases of one span each take one grant per span. On a
// graph whose group is trivial spans are fault sets, and the default chunks
// take ⌈extent/1024⌉ grants as before. Every Result is the local oracle's.
func TestPooledCheckLeasesSpans(t *testing.T) {
	core := testGraph(t, "core", 19, 6)
	asym := asymmetricDigraph(t, 25)
	for _, tc := range []struct {
		name       string
		g          *graph.Graph
		f, workers int
		opts       Options
		grants     int64 // 0: one per span
	}{
		{"core(19,6), defaults", core, 6, 2, Options{}, 1},
		{"core(19,6), one span a lease", core, 6, 2, Options{ChunkSize: 1, ReportEvery: 1}, 0},
		{"random(25), defaults", asym, 3, 1, Options{}, (condition.NumFaultSets(25, 3) + DefaultChunkSize - 1) / DefaultChunkSize},
	} {
		want, err := condition.CheckScan(context.Background(), tc.g, tc.f, condition.SyncThreshold(tc.f), condition.ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := pooledCheck(t, tc.opts, tc.workers, tc.g, tc.f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled result %+v, oracle %+v", tc.name, got, want)
		}
		grants := tc.grants
		if grants == 0 {
			total := condition.NumFaultSets(tc.g.N(), tc.f)
			if grants = testSpans(t, tc.g, tc.f).Count(0, total); grants < 28 {
				t.Fatalf("%s: %d spans, want one per orbit at least", tc.name, grants)
			}
		}
		if stats.JobsGranted != grants || stats.JobsStolen != 0 {
			t.Fatalf("%s: %d jobs granted, %d stolen, want %d and none", tc.name, stats.JobsGranted, stats.JobsStolen, grants)
		}
	}
}

// TestReportOffTheSliceIsRejected: a report through any index but the end of
// the slice the coordinator dictated — here the middle of the first slice,
// which a range check alone would take — drops the connection unjournaled,
// like an out-of-range report, and the requeued lease still finishes to the
// oracle Result.
func TestReportOffTheSliceIsRejected(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{ChunkSize: 4, ReportEvery: 2})
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resCh := make(chan condition.Result, 1)
	go func() {
		res, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{})
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	a := dialWire(t, c.Addr())
	grant := a.requestJob()
	if grant.to-grant.lo < 2 {
		t.Fatalf("first slice [%d, %d) too short to report inside", grant.lo, grant.to)
	}
	a.write(appendReportOK(nil, reportOK{
		jobID: grant.jobID, through: grant.to - 1,
		counters: condition.WorkCounters{Candidates: 1 << 40}, // poison: journaling this would corrupt the totals
	}))
	if kind, _, _, err := readFrame(a.br, nil); err == nil {
		t.Fatalf("a report off the slice was answered with frame kind %d", kind)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go Work(ctx, c.Addr(), WorkerOptions{})
	if got := <-resCh; !reflect.DeepEqual(got, want) {
		t.Fatalf("result after a rejected report %+v, oracle %+v", got, want)
	}
	if s := c.Stats(); s.LeasesRequeued == 0 {
		t.Fatalf("the rejected report's lease was not requeued: %+v", s)
	}
}

// TestHelloRefusesVersion1: a peer speaking the version-1 protocol, where
// workers computed their own slice ends, is refused with an error naming
// both versions, and so is one speaking version 2, whose scan specs carried
// an edge list and no generators. The coordinator answers its hello with its
// own before it hangs up, so the old peer can report the mismatch, and
// counts no worker; a worker answered by a version-1 hello fails with the
// version error rather than taking the hang-up for a clean shutdown.
func TestHelloRefusesVersion1(t *testing.T) {
	for _, v := range []byte{1, 2} {
		old := appendHello(nil)
		old[len(old)-1] = v
		err := decodeHello(old[wire.FrameHeaderLen+1:])
		if want := fmt.Sprintf("version %d, this build speaks 3", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("decodeHello(version %d) = %v", v, err)
		}
	}
	v1 := appendHello(nil)
	v1[len(v1)-1] = 1

	c := NewCoordinator(Options{})
	if err := c.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	nc, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(v1); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	kind, payload, _, err := readFrame(br, nil)
	if err != nil || kind != kindHello || decodeHello(payload) != nil {
		t.Fatalf("coordinator answered a version-1 hello with kind %d, err %v", kind, err)
	}
	if _, _, _, err := readFrame(br, nil); err == nil {
		t.Fatal("coordinator kept serving a version-1 peer")
	}
	if s := c.Stats(); s.WorkersSeen != 0 {
		t.Fatalf("WorkersSeen = %d after a version-1 hello", s.WorkersSeen)
	}

	wc, sc := net.Pipe()
	go func() {
		defer sc.Close()
		if kind, _, _, err := readFrame(bufio.NewReader(sc), nil); err == nil && kind == kindHello {
			sc.Write(v1)
		}
	}()
	err = work(context.Background(), func(context.Context) (net.Conn, error) { return wc, nil })
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("worker answered by a version-1 hello returned %v", err)
	}
}

// TestPooledCheckRefusesCounterOverflow: core(61,20) at f = 20 accounts for
// more candidate sets than int64 holds. Its one lease reports a delta that
// stops at math.MaxInt64, and the coordinator's frontier refuses it with the
// checker's *condition.CounterOverflowError, as the local check does.
func TestPooledCheckRefusesCounterOverflow(t *testing.T) {
	g := testGraph(t, "core", 61, 20)
	_, stats, err := pooledCheck(t, Options{}, 2, g, 20)
	var oe *condition.CounterOverflowError
	if !errors.As(err, &oe) || stats.JobsGranted != 1 {
		t.Fatalf("pooled core(61,20): err=%v after %d grants, want a counter overflow after one", err, stats.JobsGranted)
	}
}
