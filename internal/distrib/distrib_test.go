package distrib

// The package's conformance battery: everything here compares a distributed
// run against the single-process oracle — same verdict, same witness, same
// work counters, same bit-exact traces — under clean runs, worker death,
// zombie leases, stealing, and checkpoint resume.

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
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
		jobID: grant.jobID, through: grant.lo + int64(grant.reportEvery),
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

// TestStealSplitsLargestLease pins the steal geometry with hand-driven
// clients: client A leases the whole enumeration, client B's request steals
// the far half beyond A's safe point, A learns the shrink through its next
// ack, and after both clients vanish a real worker still produces the
// oracle Result from the requeued remainders.
func TestStealSplitsLargestLease(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// One chunk covers the whole enumeration, so the queue drains on the
	// first grant and a second client can only get work by stealing.
	c := NewCoordinator(Options{ChunkSize: 1 << 20, ReportEvery: 4, Lease: 200 * time.Millisecond})
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
	grantA := a.requestJob()
	if grantA.lo != 0 || grantA.hi != condition.NumFaultSets(13, 4) {
		t.Fatalf("client A granted [%d, %d), want the whole enumeration", grantA.lo, grantA.hi)
	}

	b := dialWire(t, c.Addr())
	grantB := b.requestJob()
	safe := grantA.lo + int64(grantA.reportEvery)
	mid := safe + (grantA.hi-safe)/2
	if grantB.lo != mid || grantB.hi != grantA.hi {
		t.Fatalf("steal granted [%d, %d), want [%d, %d)", grantB.lo, grantB.hi, mid, grantA.hi)
	}
	if s := c.Stats(); s.JobsStolen != 1 {
		t.Fatalf("JobsStolen = %d, want 1", s.JobsStolen)
	}

	// A really scans its first slice (reports journal counters, so they must
	// be earned) and its report is acked with the shrunken upper bound.
	scanner, err := condition.NewShardScanner(g, 4, threshold)
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
	if ackA.cancel || ackA.newHi != mid {
		t.Fatalf("ack after steal = %+v, want newHi %d", ackA, mid)
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

// TestWorkerPoolResolvesSpecOnce pins the pool's shared spec cache: three
// in-memory connections of one pool split a check between them, the spec is
// fetched and its orbit table built once, and the Result is the oracle's.
func TestWorkerPoolResolvesSpecOnce(t *testing.T) {
	g := testGraph(t, "core", 13, 4)
	threshold := condition.SyncThreshold(4)
	want, err := condition.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{ChunkSize: 16, ReportEvery: 16})
	ctx, cancel := context.WithCancel(context.Background())
	cache := newSpecCache()
	pool := make(chan error, 1)
	go func() { pool <- c.runPool(ctx, 3, cache) }()
	defer func() {
		cancel()
		c.Close()
		<-pool
	}()
	waitUntil(t, "three workers", func() bool { return c.Stats().WorkersSeen == 3 })
	got, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled result %+v, oracle %+v", got, want)
	}
	if s := c.Stats(); s.JobsGranted < 3 {
		t.Fatalf("granted %d jobs, want at least one per worker", s.JobsGranted)
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if cache.fetches != 1 || len(cache.specs) != 1 {
		t.Fatalf("the pool fetched the spec %d times and holds %d specs, want 1 and 1", cache.fetches, len(cache.specs))
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
	if err := work(context.Background(), serve(now), newSpecCache()); err != nil {
		t.Fatalf("worker reported the coordinator's hang-up as a failure: %v", err)
	}

	// The coordinator never reads the job request; the close that ends the
	// worker is its own, from the canceled context.
	never := make(chan struct{})
	defer close(never)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- work(ctx, serve(never), newSpecCache()) }()
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
	cache := newSpecCache()
	run := func(connect func(context.Context) (net.Conn, error)) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			work(ctx, connect, cache)
		}()
	}
	run(func(context.Context) (net.Conn, error) { return doomed, nil })
	waitUntil(t, "the doomed worker", func() bool { return c.Stats().WorkersSeen == 1 })

	var once sync.Once
	got, err := c.CheckScan(context.Background(), g, 4, threshold, condition.ScanOptions{
		// The first report acks 8 of the doomed worker's 32 fault sets; its
		// lease is still open when the connection closes.
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

// TestSpecCacheFetchesOnce: while one connection of a pool fetches a spec,
// two more ask for it; they wait for that fetch instead of making their own,
// and run forks of the cached copy, so each of the three has a scanner of
// its own over one orbit table. A failed fetch leaves nothing behind, and
// the next connection fetches again.
func TestSpecCacheFetchesOnce(t *testing.T) {
	payload, err := buildScanSpec(testGraph(t, "core", 13, 4), 4, condition.SyncThreshold(4))
	if err != nil {
		t.Fatal(err)
	}
	cache := newSpecCache()
	ctx := context.Background()
	if _, err := cache.get(ctx, 1, func() (*workerSpec, error) { return nil, net.ErrClosed }); err != net.ErrClosed {
		t.Fatalf("failed fetch: err %v, want %v", err, net.ErrClosed)
	}
	release := make(chan struct{})
	got := make([]*workerSpec, 3)
	var wg sync.WaitGroup
	ask := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, err := cache.get(ctx, 1, func() (*workerSpec, error) {
				<-release
				return resolveSpec(payload)
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = ws
		}()
	}
	ask(0)
	waitUntil(t, "the first fetch", func() bool {
		cache.mu.Lock()
		defer cache.mu.Unlock()
		return cache.fetches == 2
	})
	ask(1)
	ask(2)
	close(release)
	wg.Wait()
	if cache.fetches != 2 {
		t.Fatalf("%d fetches, want the failed one and one more", cache.fetches)
	}
	if got[0] != cache.specs[1].ws {
		t.Fatal("the connection that fetched the spec does not run the cached copy")
	}
	for i, ws := range got {
		if ws == nil || ws.kind != "scan" {
			t.Fatalf("connection %d got %+v", i, ws)
		}
		for j := range got[:i] {
			if ws.scanner == got[j].scanner {
				t.Fatalf("connections %d and %d share a scanner", j, i)
			}
		}
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

// TestResolveSpecRefusesInfeasibleScan: a scan spec whose header declares
// more nodes than the checker can scan is refused by the checker's own
// feasibility gate before the graph is parsed — for n − f > 62 and for an
// extent past int64 — so a hostile header allocates under 1 MB, where
// building its graph would take gigabytes.
func TestResolveSpecRefusesInfeasibleScan(t *testing.T) {
	for _, tc := range []struct {
		f    int
		want string
	}{
		{6, "n-f = 200001 > 62"},
		{200000, "overflow int64"},
	} {
		payload, err := json.Marshal(jobSpec{Kind: "scan", Scan: &scanSpec{Graph: "# hostile\nn 200007\n0 1\n", F: tc.f, Threshold: tc.f + 1}})
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
