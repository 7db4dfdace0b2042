package condition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/statestore"
	"iabc/internal/topology"
)

// composeRanges runs scanner over [0, total) in chunks of the given size and
// composes the spans the way the distributed coordinator does: full-span
// counters for clean chunks, the satisfied prefix plus the violating set's
// partial for the chunk that stops. It returns the composed Result.
func composeRanges(t *testing.T, scanner *ShardScanner, chunk int64) Result {
	t.Helper()
	ctx := context.Background()
	total := scanner.NumFaultSets()
	res := Result{Satisfied: true}
	var agg WorkCounters
	for lo := int64(0); lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		rr, err := scanner.ScanRange(ctx, lo, hi)
		if err != nil {
			t.Fatalf("ScanRange[%d,%d): %v", lo, hi, err)
		}
		agg.Add(rr.Satisfied)
		res.FaultSetsExamined += rr.Completed
		if rr.Violation >= 0 {
			if rr.Violation != lo+rr.Completed {
				t.Fatalf("violation index %d != lo+completed %d", rr.Violation, lo+rr.Completed)
			}
			agg.Add(rr.Partial)
			res.FaultSetsExamined++
			res.Satisfied = false
			res.Witness = rr.Witness
			break
		}
		if rr.Completed != hi-lo {
			t.Fatalf("clean range completed %d of %d", rr.Completed, hi-lo)
		}
	}
	res.CandidatesExamined = agg.Candidates
	res.CandidatesPruned = agg.Pruned
	res.MemoHits = agg.MemoHits
	return res
}

// resultEqual compares the fields a distributed scan must reproduce.
func resultEqual(t *testing.T, got, want Result) {
	t.Helper()
	if got.Satisfied != want.Satisfied {
		t.Fatalf("Satisfied = %v, want %v", got.Satisfied, want.Satisfied)
	}
	if got.FaultSetsExamined != want.FaultSetsExamined {
		t.Fatalf("FaultSetsExamined = %d, want %d", got.FaultSetsExamined, want.FaultSetsExamined)
	}
	if got.CandidatesExamined != want.CandidatesExamined ||
		got.CandidatesPruned != want.CandidatesPruned ||
		got.MemoHits != want.MemoHits {
		t.Fatalf("counters = (%d,%d,%d), want (%d,%d,%d)",
			got.CandidatesExamined, got.CandidatesPruned, got.MemoHits,
			want.CandidatesExamined, want.CandidatesPruned, want.MemoHits)
	}
	if (got.Witness == nil) != (want.Witness == nil) {
		t.Fatalf("witness presence = %v, want %v", got.Witness != nil, want.Witness != nil)
	}
	if got.Witness != nil && !reflect.DeepEqual(got.Witness, want.Witness) {
		t.Fatalf("witness = %v, want %v", got.Witness, want.Witness)
	}
}

// shardCase builds the named topology for the shard conformance tests.
func shardCase(t *testing.T, kind string, n, f int) *graph.Graph {
	t.Helper()
	var g *graph.Graph
	var err error
	switch kind {
	case "core":
		g, err = topology.CoreNetwork(n, f)
	case "chord":
		g, err = topology.Chord(n, f)
	default:
		t.Fatalf("unknown topology kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardScanComposesToSequential pins the distribution seam's soundness:
// for every chunking of the canonical enumeration, composing ScanRange spans
// reproduces the sequential CheckScan verbatim — verdict, witness (lowest
// violating index, early-exit partial counters included), and work totals.
func TestShardScanComposesToSequential(t *testing.T) {
	for _, tc := range []struct {
		kind string
		n, f int
	}{
		{"core", 13, 4},  // satisfied
		{"chord", 7, 2},  // violated (Section 6.3's example)
		{"chord", 11, 3}, // violated
	} {
		g := shardCase(t, tc.kind, tc.n, tc.f)
		threshold := SyncThreshold(tc.f)
		want, err := CheckScan(context.Background(), g, tc.f, threshold, ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		scanner, err := NewShardScanner(g, tc.f, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantTotal := scanner.NumFaultSets(), NumFaultSets(tc.n, tc.f); got != wantTotal {
			t.Fatalf("NumFaultSets = %d, want %d", got, wantTotal)
		}
		for _, chunk := range []int64{1, 7, 64, scanner.NumFaultSets() + 1} {
			got := composeRanges(t, scanner, chunk)
			resultEqual(t, got, want)
		}
	}
}

// TestShardScanRangeIsPure re-scans the same range twice on one scanner and
// on a fresh scanner; all three must agree — the purity fact lease
// re-execution rests on.
func TestShardScanRangeIsPure(t *testing.T) {
	g := shardCase(t, "chord", 11, 3)
	threshold := SyncThreshold(3)
	s1, err := NewShardScanner(g, 3, threshold)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewShardScanner(g, 3, threshold)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	total := s1.NumFaultSets()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		lo := rng.Int63n(total)
		hi := lo + 1 + rng.Int63n(total-lo)
		a, err := s1.ScanRange(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s1.ScanRange(ctx, lo, hi) // same scanner, again
		if err != nil {
			t.Fatal(err)
		}
		c, err := s2.ScanRange(ctx, lo, hi) // fresh scanner
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Fatalf("range [%d,%d) not pure:\n a=%+v\n b=%+v\n c=%+v", lo, hi, a, b, c)
		}
	}
}

// TestScanFrontierSpans drives the exported frontier with out-of-order
// spans over a Mem store and checks the durable frontier never jumps the
// gap, then resumes from exactly the journaled prefix.
func TestScanFrontierSpans(t *testing.T) {
	g := shardCase(t, "core", 13, 4)
	store := statestore.NewMem()
	ctx := context.Background()
	threshold := SyncThreshold(4)
	fr, cached, err := LoadScanFrontier(ctx, store, g, 4, threshold, 1)
	if err != nil || cached != nil {
		t.Fatalf("LoadScanFrontier: cached=%v err=%v", cached, err)
	}
	if start, _ := fr.ResumePoint(); start != 0 {
		t.Fatalf("fresh resume point = %d", start)
	}
	// Journal [40, 100) before [0, 40): the frontier must hold at 0.
	if err := fr.CompleteSpan(ctx, 40, 100, WorkCounters{Candidates: 60}); err != nil {
		t.Fatal(err)
	}
	if pos, _ := fr.Position(); pos != 0 {
		t.Fatalf("frontier jumped the gap: %d", pos)
	}
	if err := fr.CompleteSpan(ctx, 0, 40, WorkCounters{Candidates: 40, Pruned: 4}); err != nil {
		t.Fatal(err)
	}
	pos, agg := fr.Position()
	if pos != 100 || agg.Candidates != 100 || agg.Pruned != 4 {
		t.Fatalf("after gap fill: pos=%d agg=%+v", pos, agg)
	}
	if err := fr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// A fresh frontier over the same store resumes at the flushed prefix.
	fr2, cached, err := LoadScanFrontier(ctx, store, g, 4, threshold, 1)
	if err != nil || cached != nil {
		t.Fatalf("reload: cached=%v err=%v", cached, err)
	}
	start, agg := fr2.ResumePoint()
	if start != 100 || agg.Candidates != 100 || agg.Pruned != 4 {
		t.Fatalf("resume point = %d, %+v", start, agg)
	}
	// Finish caches the verdict; the next load serves it.
	res := Result{Satisfied: true, FaultSetsExamined: fr2.Total(), CandidatesExamined: 1234}
	if err := fr2.Finish(ctx, res); err != nil {
		t.Fatal(err)
	}
	_, cached, err = LoadScanFrontier(ctx, store, g, 4, threshold, 1)
	if err != nil || cached == nil || !cached.CacheHit || cached.CandidatesExamined != 1234 {
		t.Fatalf("after finish: cached=%+v err=%v", cached, err)
	}
	// Memory-only frontier (nil store) aggregates without persistence.
	fr3, cached, err := LoadScanFrontier(ctx, nil, g, 4, threshold, 0)
	if err != nil || cached != nil {
		t.Fatalf("nil-store load: cached=%v err=%v", cached, err)
	}
	if err := fr3.CompleteSpan(ctx, 0, 5, WorkCounters{MemoHits: 2}); err != nil {
		t.Fatal(err)
	}
	if pos, agg := fr3.Position(); pos != 5 || agg.MemoHits != 2 {
		t.Fatalf("nil-store frontier: pos=%d agg=%+v", pos, agg)
	}
	if err := fr3.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// lexFaultSets lists every subset of {0..n-1} of size ≤ f in canonical
// order — size-ascending, then lexicographic — by stepping one combination
// to the next: the reference faultSet's unranking is pinned to.
func lexFaultSets(n, f int) [][]int {
	var out [][]int
	for k := 0; k <= f && k <= n; k++ {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		for {
			out = append(out, slices.Clone(idx))
			i := k - 1
			for i >= 0 && idx[i] == n-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return out
}

// faultSetMembers returns fault set i over n nodes as a sorted member list.
func faultSetMembers(n int, i int64) []int {
	var out []int
	faultSet(n, i, func(v int) { out = append(out, v) })
	return out
}

// TestFaultSetUnranksCanonicalOrder pins the index space: faultSet(n, i) is
// the i-th set of the reference enumeration at every index for small n, and
// past binomTable the first and last index of every size whose extent fits
// int64 are the first and last combinations of that size.
func TestFaultSetUnranksCanonicalOrder(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for f := 0; f <= 4; f++ {
			want := lexFaultSets(n, f)
			if got := NumFaultSets(n, f); got != int64(len(want)) {
				t.Fatalf("NumFaultSets(%d,%d) = %d, reference lists %d", n, f, got, len(want))
			}
			for i, w := range want {
				if got := faultSetMembers(n, int64(i)); !slices.Equal(got, w) {
					t.Fatalf("n=%d: fault set %d = %v, want %v", n, i, got, w)
				}
			}
		}
	}
	for _, n := range []int{63, 64, 70} {
		var lo int64
		for k := 0; k <= n && NumFaultSets(n, k) > 0; k++ {
			first, last := make([]int, k), make([]int, k)
			for j := range k {
				first[j], last[j] = j, n-k+j
			}
			hi := lo + binom(n, k) - 1
			if got := faultSetMembers(n, lo); !slices.Equal(got, first) {
				t.Fatalf("n=%d: fault set %d = %v, want the first of size %d, %v", n, lo, got, k, first)
			}
			if got := faultSetMembers(n, hi); !slices.Equal(got, last) {
				t.Fatalf("n=%d: fault set %d = %v, want the last of size %d, %v", n, hi, got, k, last)
			}
			if lo = hi + 1; lo != NumFaultSets(n, k) {
				t.Fatalf("n=%d: size %d ends at %d, NumFaultSets = %d", n, k, lo, NumFaultSets(n, k))
			}
		}
	}
}

// TestNextFaultSetFollowsIndexOrder pins the orbit table's walk:
// nextFaultSet steps from each fault set to the one faultSet unranks at the
// next index, over every index for small n and across the first and last
// steps of every size, the size boundaries among them, at n = 62.
func TestNextFaultSetFollowsIndexOrder(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for f := 0; f <= 4; f++ {
			mask := uint64(0)
			for i := int64(0); i < NumFaultSets(n, f); i++ {
				if want := faultSetMask(n, i); mask != want {
					t.Fatalf("n=%d: step %d reaches %b, fault set %d is %b", n, i, mask, i, want)
				}
				mask = nextFaultSet(n, mask)
			}
		}
	}
	const n = 62
	for k := 0; k < n; k++ {
		lo, hi := NumFaultSets(n, k-1), NumFaultSets(n, k) // size k is [lo, hi)
		for _, i := range []int64{lo, lo + 1, lo + 2, hi - 3, hi - 2, hi - 1} {
			if i < lo || i+1 >= NumFaultSets(n, n) {
				continue
			}
			if got, want := nextFaultSet(n, faultSetMask(n, i)), faultSetMask(n, i+1); got != want {
				t.Fatalf("n=%d: after fault set %d comes %b, want %b", n, i, got, want)
			}
		}
	}
}

// TestShardScannerStoresNoFaultSets pins that a scanner keeps no per-index
// table where the graph has no symmetry to record: on a seeded random
// digraph with a trivial automorphism group at f = 8 (1 807 781 fault sets),
// construction allocates under 64 KB.
func TestShardScannerStoresNoFaultSets(t *testing.T) {
	g, err := topology.RandomDigraph(25, 0.7, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewShardScanner(g, 8, SyncThreshold(8))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFaultSets() != 1807781 || s.rep != nil {
		t.Fatalf("extent %d, orbits %v: want 1807781 fault sets and the identity group", s.NumFaultSets(), s.rep != nil)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
		t.Fatalf("NewShardScanner allocated %d bytes, want < 64 KB", b)
	}
}

// TestWindowMemoIsBounded pins the identity group's memo to one window: on
// the random digraph above at f = 8, whose scan stops at its 327th fault set,
// CheckScan with two workers allocates under 8 MB (a memo of one result per
// fault set took 72 MB) and returns the sequential Result.
func TestWindowMemoIsBounded(t *testing.T) {
	g, err := topology.RandomDigraph(25, 0.7, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := CheckScan(ctx, g, 8, SyncThreshold(8), ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.Satisfied || want.FaultSetsExamined != 327 {
		t.Fatalf("sequential scan: satisfied %v after %d fault sets, want a violation at the 327th", want.Satisfied, want.FaultSetsExamined)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := CheckScan(ctx, g, 8, SyncThreshold(8), ScanOptions{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	resultEqual(t, got, want)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 8<<20 {
		t.Fatalf("CheckScan with 2 workers allocated %d bytes, want < 8 MB", b)
	}
}

// TestWindowsWrapAcrossResume runs the identity group's window memo through
// several windows at several worker counts on random digraphs whose group is
// trivial, satisfied ones and one that violates a whole window in: a full
// scan, a scan canceled part-way (which must return, not wait on a window)
// and its resumption from the checkpoint, whose first window starts where
// the cancel left off, all settle as the sequential scan does.
func TestWindowsWrapAcrossResume(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, f = 14, 3 // 470 fault sets: more than 4 workers' window
	ctx := context.Background()
	violatedPastWindow := false
	for trial := 0; trial < 4; trial++ {
		g, err := topology.RandomDigraph(n, 0.55+0.4*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.AutomorphismGenerators(graph.AutSearchBudget)) > 0 {
			trial-- // an orbit table would replace the identity memo
			continue
		}
		want, err := CheckScan(ctx, g, f, SyncThreshold(f), ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !want.Satisfied && want.FaultSetsExamined > 4*windowPerWorker {
			violatedPastWindow = true
		}
		for _, workers := range []int{2, 3, 4} {
			got, err := CheckScan(ctx, g, f, SyncThreshold(f), ScanOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			resultEqual(t, got, want)

			store := statestore.NewMem()
			cctx, cancel := context.WithCancel(ctx)
			var fired atomic.Int64
			_, err = CheckScan(cctx, g, f, SyncThreshold(f), ScanOptions{
				Workers: workers, CheckpointEvery: 16, Store: store,
				OnProgress: func(Progress) {
					if fired.Add(1) == 150 {
						cancel()
					}
				},
			})
			cancel()
			if want.FaultSetsExamined > 150 && !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d workers=%d: interrupted scan err=%v, want context.Canceled", trial, workers, err)
			}
			resumed, err := CheckScan(ctx, g, f, SyncThreshold(f), ScanOptions{Workers: workers, CheckpointEvery: 16, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.CacheHit {
				resultEqual(t, stripResumeMarkers(resumed), want)
			}
		}
	}
	if !violatedPastWindow {
		t.Fatal("no trial violated past a window; ScanRange's early exit went untested")
	}
}

// TestWindowBoundaries is the differential gate of the parallel check's
// windows, on a random digraph whose group is trivial and on a mirrored one
// whose orbit table pairs its fault sets, each violating past four workers'
// window. At 2–4 workers a check from index 0 and two checks resumed from a
// checkpoint just past an orbit's representative — which put the lowest
// violating index on the first orbit of a window and on the last — return
// the Result of the Workers: 1 check from the same checkpoint.
func TestWindowBoundaries(t *testing.T) {
	must := mustGraph(t)
	ctx := context.Background()
	const f = 3
	threshold := SyncThreshold(f)
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name   string
		orbits bool
		draw   func() *graph.Graph
	}{
		{"random(14)", false, func() *graph.Graph { return must(topology.RandomDigraph(14, 0.55+0.4*rng.Float64(), rng)) }},
		{"mirrored(18)", true, func() *graph.Graph { return must(mirroredDigraph(9, 0.55+0.4*rng.Float64(), rng)) }},
	} {
		// Draw until the group is the one the case names and the lowest
		// violating index lies past four workers' window: orbit ov.
		var (
			g  *graph.Graph
			s  *ShardScanner
			ov int64
		)
		for draws := 0; ; draws++ {
			if draws == 200 {
				t.Fatalf("%s: no draw violates past four workers' window", tc.name)
			}
			g = tc.draw()
			var err error
			if s, err = NewShardScanner(g, f, threshold); err != nil {
				t.Fatal(err)
			}
			if (s.orbit != nil) != tc.orbits {
				continue
			}
			rr, err := s.ScanRange(ctx, 0, s.NumFaultSets())
			if err != nil {
				t.Fatal(err)
			}
			if rr.Violation < 0 {
				continue
			}
			if ov = rr.Violation; s.orbit != nil {
				ov = int64(s.orbit[ov])
			}
			if ov > 4*windowPerWorker {
				break
			}
		}
		for workers := 2; workers <= 4; workers++ {
			size := int64(windowPerWorker * workers)
			for _, skip := range []int64{0, s.repOf(ov-size-1) + 1, s.repOf(ov-size) + 1} {
				want := checkFrom(t, g, f, skip, 1)
				got := checkFrom(t, g, f, skip, workers)
				if got.FaultSetsResumed != want.FaultSetsResumed {
					t.Fatalf("%s, %d workers from %d: FaultSetsResumed = %d, want %d", tc.name, workers, skip, got.FaultSetsResumed, want.FaultSetsResumed)
				}
				resultEqual(t, got, want)
			}
		}
	}
}

// checkFrom runs CheckScan at the given worker count from a checkpoint at
// skip, which a sequential scan canceled once it has decided skip fault sets
// leaves behind.
func checkFrom(t *testing.T, g *graph.Graph, f int, skip int64, workers int) Result {
	t.Helper()
	ctx := context.Background()
	opts := ScanOptions{Workers: workers}
	if skip > 0 {
		opts.Store = statestore.NewMem()
		cctx, cancel := context.WithCancel(ctx)
		_, err := CheckScan(cctx, g, f, SyncThreshold(f), ScanOptions{
			Workers: 1, Store: opts.Store,
			OnProgress: func(p Progress) {
				if p.FaultSetsDone == skip {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("scan to a checkpoint at %d: err = %v, want context.Canceled", skip, err)
		}
	}
	res, err := CheckScan(ctx, g, f, SyncThreshold(f), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultSetsResumed != skip {
		t.Fatalf("resumed %d fault sets, want %d", res.FaultSetsResumed, skip)
	}
	return res
}

// mirroredDigraph returns a random digraph on 2m nodes that the swap
// v ↔ v+m maps onto itself: both halves copy one random digraph on m nodes
// and the edges between them come in swapped pairs.
func mirroredDigraph(m int, p float64, rng *rand.Rand) (*graph.Graph, error) {
	b := graph.NewBuilder(2 * m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && rng.Float64() < p {
				b.AddEdge(i, j).AddEdge(i+m, j+m)
			}
			if rng.Float64() < p {
				b.AddEdge(i, j+m).AddEdge(i+m, j)
			}
		}
	}
	return b.Build()
}

// TestScanRangeChunkingsMatchReference is the differential gate of
// ScanRange's counting: 1–4 goroutines, each with a scanner of its own, scan
// random chunkings of the whole index space at once — single fault sets,
// longer ranges, and ranges straddling the lowest violation — and every
// RangeResult must equal the one a scanner on the per-index table gives for
// the same range. The cases are a satisfied core network and a
// violating one, K_{6,6} plus edges (violating with transpositions only;
// satisfied with a generator that swaps the sides too) on count vectors,
// and a random digraph whose group is trivial.
func TestScanRangeChunkingsMatchReference(t *testing.T) {
	must := mustGraph(t)
	rng := rand.New(rand.NewSource(5))
	var asym *graph.Graph
	for asym == nil || len(asym.AutomorphismGenerators(graph.AutSearchBudget)) > 0 {
		asym = must(topology.RandomDigraph(11, 0.5+0.4*rng.Float64(), rng))
	}
	verdicts := map[bool]bool{}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		f       int
		vectors bool
	}{
		{"core(13,4)", must(topology.CoreNetwork(13, 4)), 4, true},
		{"core(13,4) f=5", must(topology.CoreNetwork(13, 4)), 5, true},
		{"K6,6 + 0↔1", must(topology.AddEdges(must(topology.CompleteBipartite(6, 6)), [][2]int{{0, 1}, {1, 0}})), 4, true},
		{"K6,6 + 0↔1, 6↔7", must(topology.AddEdges(must(topology.CompleteBipartite(6, 6)), [][2]int{{0, 1}, {1, 0}, {6, 7}, {7, 6}})), 2, true},
		{"random(11)", asym, 3, false},
	} {
		threshold := SyncThreshold(tc.f)
		want, err := CheckScan(context.Background(), tc.g, tc.f, threshold, ScanOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		verdicts[want.Satisfied] = true
		viol := want.FaultSetsExamined - 1 // the lowest violation, when there is one
		if want.Satisfied {
			viol = -1
		}
		for workers := 1; workers <= 4; workers++ {
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				s := newShardScanner(tc.g, tc.f, threshold, ScanGenerators(tc.g, tc.f))
				if tc.vectors {
					s = vectorScanner(t, tc.g, tc.f, threshold)
				}
				seed := rng.Int63()
				go func() { errs <- scanChunkings(s, viol, seed) }()
			}
			for w := 0; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Fatalf("%s, %d scanners: %v", tc.name, workers, err)
				}
			}
		}
	}
	if !verdicts[true] || !verdicts[false] {
		t.Fatalf("verdicts seen %v: want a satisfied case and a violating one", verdicts)
	}
}

// scanChunkings scans s's whole index space in random chunks, three times
// over, then ranges that straddle index viol (when ≥ 0), and compares each
// range with the one a scanner on the per-index table gives, a fresh one for
// each of the four passes.
func scanChunkings(s *ShardScanner, viol, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	total := s.NumFaultSets()
	passes := make([][][2]int64, 4)
	for pass := range passes[:3] {
		for lo, hi := int64(0), int64(0); lo < total; lo = hi {
			if hi = lo + 1; rng.Intn(4) > 0 {
				hi = min(total, lo+1+rng.Int63n(total/4+1))
			}
			passes[pass] = append(passes[pass], [2]int64{lo, hi})
		}
	}
	for k := 0; viol >= 0 && k < 20; k++ {
		lo := max(0, viol-rng.Int63n(50))
		passes[3] = append(passes[3], [2]int64{lo, min(total, viol+1+rng.Int63n(50))})
	}
	for _, ranges := range passes {
		ref := tableScanner(s.g, s.f, s.threshold)
		for _, r := range ranges {
			got, err := s.ScanRange(ctx, r[0], r[1])
			if err != nil {
				return err
			}
			want, err := ref.ScanRange(ctx, r[0], r[1])
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("range [%d,%d): got %+v, the per-index table %+v", r[0], r[1], got, want)
			}
		}
	}
	return nil
}

// TestScanRangeMemoHitAllocatesNothing pins the cost of a memo hit: once
// every orbit of a satisfied range is decided, scanning the range again
// allocates nothing, under a live cancelable context too, on count vectors
// (core(13,4)), whose counting scratch is the scanner's, and on a per-index
// table (chord(16,2)).
func TestScanRangeMemoHitAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		kind    string
		n, f    int
		vectors bool
	}{{"core", 13, 4, true}, {"chord", 16, 2, false}} {
		s, err := NewShardScanner(shardCase(t, tc.kind, tc.n, tc.f), tc.f, SyncThreshold(tc.f))
		if err != nil {
			t.Fatal(err)
		}
		if (s.low != nil) != tc.vectors || s.rep == nil {
			t.Fatalf("%s(%d,%d): count vectors %v, want %v", tc.kind, tc.n, tc.f, s.low != nil, tc.vectors)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		total := s.NumFaultSets()
		if rr, err := s.ScanRange(ctx, 0, total); err != nil || rr.Completed != total {
			t.Fatalf("first pass: %+v, %v; want a clean pass over %d fault sets", rr, err, total)
		}
		if a := testing.AllocsPerRun(20, func() {
			if _, err := s.ScanRange(ctx, 0, total); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ScanRange(ctx, total/3, 2*total/3); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("%s(%d,%d): ScanRange over decided orbits: %v allocations per run, want 0", tc.kind, tc.n, tc.f, a)
		}
	}
}

// TestSpansMatchRepresentatives pins Spans against the span ends listed
// outright, every representative plus one and the extent: End(lo, k) is the
// k-th end above lo, the extent past the last, and Count(lo, hi) is one more
// than the ends strictly inside (lo, hi). The cases are core(19,6) on count
// vectors, a relabelled chord(16,2) on a table and a random digraph whose
// group is trivial, where End and Count are lo+k and hi−lo.
func TestSpansMatchRepresentatives(t *testing.T) {
	must := mustGraph(t)
	rng := rand.New(rand.NewSource(7))
	var asym *graph.Graph
	for asym == nil || len(asym.AutomorphismGenerators(graph.AutSearchBudget)) > 0 {
		asym = must(topology.RandomDigraph(12, 0.5+0.4*rng.Float64(), rng))
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		f    int
	}{
		{"core(19,6)", must(topology.CoreNetwork(19, 6)), 6},
		{"relabelled chord(16,2)", relabelGraph(must(topology.Chord(16, 2)), rng.Perm(16)), 2},
		{"random(12)", asym, 3},
	} {
		s, err := NewShardScanner(tc.g, tc.f, SyncThreshold(tc.f))
		if err != nil {
			t.Fatal(err)
		}
		sp, total := s.Spans(), s.NumFaultSets()
		var ends []int64 // ascending
		for o := int64(0); s.repOf(o) < total; o++ {
			ends = append(ends, s.repOf(o)+1)
		}
		if ends[len(ends)-1] != total {
			ends = append(ends, total)
		}
		if s.rep == nil && int64(len(ends)) != total {
			t.Fatalf("%s: %d spans over %d fault sets under the identity group", tc.name, len(ends), total)
		}
		for trial := 0; trial < 2000; trial++ {
			lo := rng.Int63n(total)
			hi := lo + rng.Int63n(total-lo+1)
			k := 1 + rng.Int63n(int64(len(ends))+2)
			above, _ := slices.BinarySearch(ends, lo+1) // ends[above] is the first end above lo
			want := total
			if above+int(k)-1 < len(ends) {
				want = ends[above+int(k)-1]
			}
			if s.rep == nil {
				want = lo + k
			}
			if got := sp.End(lo, k); got != want {
				t.Fatalf("%s: End(%d, %d) = %d, want %d", tc.name, lo, k, got, want)
			}
			inside, _ := slices.BinarySearch(ends, hi)
			wantCount := int64(inside-above) + 1
			if hi == lo {
				wantCount = 0
			}
			if got := sp.Count(lo, hi); got != wantCount {
				t.Fatalf("%s: Count(%d, %d) = %d, want %d", tc.name, lo, hi, got, wantCount)
			}
			if s.rep == nil && wantCount != hi-lo {
				t.Fatalf("%s: Count(%d, %d) = %d spans of one fault set each", tc.name, lo, hi, wantCount)
			}
		}
		if got := sp.End(0, 0); got != 0 {
			t.Fatalf("%s: End(0, 0) = %d", tc.name, got)
		}
	}
}

// TestCounterOverflowIsRefused: core(61,20) at f = 20 accounts for more
// candidate sets than int64 holds, and the check, the maxf sweep and a
// checkpoint resumed from an older build's wrapped sum refuse it with a
// *CounterOverflowError rather than print a wrapped count; core(40,13) at
// f = 13, 3.4·10¹⁸ candidate sets, stays exact.
func TestCounterOverflowIsRefused(t *testing.T) {
	must := mustGraph(t)
	ctx := context.Background()
	var oe *CounterOverflowError
	g := must(topology.CoreNetwork(61, 20))
	if res, err := CheckScan(ctx, g, 20, SyncThreshold(20), ScanOptions{Workers: 1}); !errors.As(err, &oe) || oe.Counter != "candidate sets" {
		t.Fatalf("core(61,20): res=%+v err=%v, want a candidate-set overflow", res, err)
	}
	g40 := must(topology.CoreNetwork(40, 13))
	res, err := CheckScan(ctx, g40, 13, SyncThreshold(13), ScanOptions{Workers: 2})
	want := Result{Satisfied: true, FaultSetsExamined: 21153123932, CandidatesExamined: 3425912391453951769, CandidatesPruned: 3425903723681841328}
	if err != nil || !reflect.DeepEqual(res, want) {
		t.Fatalf("core(40,13): res=%+v err=%v, want %+v", res, err, want)
	}
	// The sweep's sum over f = 0…13 passes int64 although each check fits.
	if _, _, err := MaxFScan(ctx, g40, MaxFOptions{}); !errors.As(err, &oe) {
		t.Fatalf("maxf core(40,13): err=%v, want a counter overflow", err)
	}
	// A resumed aggregate that the next span would carry past int64 is
	// refused too, and a negative one, a wrapped sum, is not resumed.
	store := statestore.NewMem()
	fr, _, err := LoadScanFrontier(ctx, store, g40, 13, SyncThreshold(13), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.CompleteSpan(ctx, 0, 1, WorkCounters{Candidates: math.MaxInt64 - 1}); err != nil {
		t.Fatal(err)
	}
	if err := fr.CompleteSpan(ctx, 1, 2, WorkCounters{Candidates: 1}); !errors.As(err, &oe) {
		t.Fatalf("CompleteSpan past int64: err=%v", err)
	}
	if done, agg := fr.Position(); done != 1 || agg.Candidates != math.MaxInt64-1 {
		t.Fatalf("frontier moved past the refused span: %d, %+v", done, agg)
	}
	store = statestore.NewMem()
	if fr, _, err = LoadScanFrontier(ctx, store, g40, 13, SyncThreshold(13), 1); err != nil {
		t.Fatal(err)
	}
	if err := fr.CompleteSpan(ctx, 0, 2, WorkCounters{Candidates: -5}); err != nil {
		t.Fatal(err)
	}
	if fr, _, err = LoadScanFrontier(ctx, store, g40, 13, SyncThreshold(13), 1); err != nil {
		t.Fatal(err)
	}
	if skip, agg := fr.ResumePoint(); skip != 0 || agg != (WorkCounters{}) {
		t.Fatalf("resumed a wrapped checkpoint: %d, %+v", skip, agg)
	}
	if err := fr.Finish(ctx, Result{Satisfied: true, FaultSetsExamined: 1, CandidatesExamined: -3}); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := LoadScanFrontier(ctx, store, g40, 13, SyncThreshold(13), 1); err != nil || cached != nil {
		t.Fatalf("served a wrapped verdict: %+v, err=%v", cached, err)
	}
}
