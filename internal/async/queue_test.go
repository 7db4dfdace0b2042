package async

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// rangeSample is one OnRange call: the simulation time and fault-free range
// after a fault-free state change.
type rangeSample struct{ time, rng float64 }

// runRecorded is runOnQueue with the OnRange series recorded alongside the
// trace.
func runRecorded(cfg Config, q eventPQ) (*Trace, []rangeSample, error) {
	var series []rangeSample
	cfg.OnRange = func(time, rng float64) { series = append(series, rangeSample{time, rng}) }
	tr, err := runOnQueue(context.Background(), cfg, q)
	return tr, series, err
}

// tracesBitIdentical compares two traces field by field and their full
// OnRange series point by point, with float64 payloads compared bitwise —
// the calendar queue must reproduce the heap's runs exactly, not
// approximately.
func tracesBitIdentical(t *testing.T, want, got *Trace, wantSeries, gotSeries []rangeSample) {
	t.Helper()
	if want.Converged != got.Converged || want.Stalled != got.Stalled {
		t.Fatalf("status: want converged=%v stalled=%v, got converged=%v stalled=%v",
			want.Converged, want.Stalled, got.Converged, got.Stalled)
	}
	if math.Float64bits(want.Time) != math.Float64bits(got.Time) {
		t.Fatalf("end time: want %v, got %v", want.Time, got.Time)
	}
	if want.Deliveries != got.Deliveries {
		t.Fatalf("deliveries: want %d, got %d", want.Deliveries, got.Deliveries)
	}
	if math.Float64bits(want.InitialRange) != math.Float64bits(got.InitialRange) {
		t.Fatalf("initial range: want %v, got %v", want.InitialRange, got.InitialRange)
	}
	if len(want.Rounds) != len(got.Rounds) {
		t.Fatalf("rounds length: want %d, got %d", len(want.Rounds), len(got.Rounds))
	}
	for i := range want.Rounds {
		if want.Rounds[i] != got.Rounds[i] {
			t.Fatalf("rounds[%d]: want %d, got %d", i, want.Rounds[i], got.Rounds[i])
		}
	}
	if len(want.Final) != len(got.Final) {
		t.Fatalf("final length: want %d, got %d", len(want.Final), len(got.Final))
	}
	for i := range want.Final {
		if math.Float64bits(want.Final[i]) != math.Float64bits(got.Final[i]) {
			t.Fatalf("final[%d]: want %v, got %v", i, want.Final[i], got.Final[i])
		}
	}
	if len(wantSeries) != len(gotSeries) {
		t.Fatalf("range series length: want %d, got %d", len(wantSeries), len(gotSeries))
	}
	for i := range wantSeries {
		w, g := wantSeries[i], gotSeries[i]
		if math.Float64bits(w.time) != math.Float64bits(g.time) ||
			math.Float64bits(w.rng) != math.Float64bits(g.rng) {
			t.Fatalf("range series[%d]: want %+v, got %+v", i, w, g)
		}
	}
}

// TestCalendarQueueRunMatchesHeap replays identical configurations through
// runOnQueue on the production calendar queue and on the container/heap
// reference, across the seeded delay policies, and requires bit-identical
// traces. This is the trace-identity contract Run's doc comment claims.
func TestCalendarQueueRunMatchesHeap(t *testing.T) {
	g7, err := topology.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	g10, err := topology.Complete(10)
	if err != nil {
		t.Fatal(err)
	}

	type scenario struct {
		name   string
		config func() Config // fresh Config per run: delay RNGs are stateful
	}
	scenarios := []scenario{
		{"fixed/fault-free", func() Config {
			return Config{
				G: g7, F: 0, Initial: initialRamp(7), Rule: core.TrimmedMean{},
				Delays: Fixed{D: 1}, MaxRounds: 50, Epsilon: 1e-9,
			}
		}},
		{"uniform/fixed-adversary", func() Config {
			return Config{
				G: g7, F: 1, Faulty: nodeset.FromMembers(7, 6),
				Initial: initialRamp(7), Rule: core.TrimmedMean{},
				Adversary: adversary.Fixed{Value: 1e6},
				Delays:    &Uniform{B: 1.5, Rng: rand.New(rand.NewSource(5))},
				MaxRounds: 300, Epsilon: 1e-8,
			}
		}},
		{"uniform/silent-stall", func() Config {
			// Two silent faulty on K7 with F=1 exceeds the tolerance: the
			// queue drains and the run stalls — the drain path must match too.
			return Config{
				G: g7, F: 1, Faulty: nodeset.FromMembers(7, 5, 6),
				Initial: initialRamp(7), Rule: core.TrimmedMean{},
				Adversary: adversary.Silent{},
				Delays:    &Uniform{B: 2, Rng: rand.New(rand.NewSource(11))},
				MaxRounds: 60,
			}
		}},
		{"jitter/extremes", func() Config {
			return Config{
				G: g10, F: 2, Faulty: nodeset.FromMembers(10, 8, 9),
				Initial: initialRamp(10), Rule: core.TrimmedMean{},
				Adversary: adversary.Extremes{Amplitude: 100},
				Delays:    Jitter{B: 1.25, Seed: 42},
				MaxRounds: 200, Epsilon: 1e-8,
			}
		}},
		{"jitter/noise-decimated", func() Config {
			return Config{
				G: g10, F: 2, Faulty: nodeset.FromMembers(10, 0, 9),
				Initial: initialRamp(10), Rule: core.TrimmedMean{},
				Adversary: &adversary.RandomNoise{Rng: rand.New(rand.NewSource(7)), Lo: -50, Hi: 50},
				Delays:    Jitter{B: 0.75, Seed: 1},
				MaxRounds: 150, Epsilon: 1e-7,
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, wantSeries, err := runRecorded(sc.config(), newHeapQueue())
			if err != nil {
				t.Fatal(err)
			}
			got, gotSeries, err := runRecorded(sc.config(), newCalendarQueue())
			if err != nil {
				t.Fatal(err)
			}
			tracesBitIdentical(t, want, got, wantSeries, gotSeries)
		})
	}
}

// TestCalendarQueueFarJump exercises the full-empty-year fallback: after a
// cluster of near events drains, the next event lies many calendar years
// ahead and pop must find it by direct scan.
func TestCalendarQueueFarJump(t *testing.T) {
	q := newCalendarQueue()
	times := []float64{0.5, 0.25, 0.75, 1e9, 2e9, 1e9} // far pair + tie
	for i, at := range times {
		q.push(event{at: at, seq: int64(i)})
	}
	wantAt := []float64{0.25, 0.5, 0.75, 1e9, 1e9, 2e9}
	wantSeq := []int64{1, 0, 2, 3, 5, 4}
	for i := range wantAt {
		e, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if e.at != wantAt[i] || e.seq != wantSeq[i] {
			t.Fatalf("pop %d: got (at=%v, seq=%d), want (at=%v, seq=%d)",
				i, e.at, e.seq, wantAt[i], wantSeq[i])
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue reported an event")
	}
}

// TestCalendarQueueExtremeTimes pins the clamping corners: negative, zero,
// huge, and +Inf times must still come out in eventLess order.
func TestCalendarQueueExtremeTimes(t *testing.T) {
	q := newCalendarQueue()
	times := []float64{math.Inf(1), -3, 0, 1e300, 5e-13, 1e300}
	for i, at := range times {
		q.push(event{at: at, seq: int64(i)})
	}
	wantAt := []float64{-3, 0, 5e-13, 1e300, 1e300, math.Inf(1)}
	wantSeq := []int64{1, 2, 4, 3, 5, 0}
	for i := range wantAt {
		e, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if e.at != wantAt[i] || e.seq != wantSeq[i] {
			t.Fatalf("pop %d: got (at=%v, seq=%d), want (at=%v, seq=%d)",
				i, e.at, e.seq, wantAt[i], wantSeq[i])
		}
	}
}

// FuzzCalendarQueueMatchesHeap drives the calendar queue and the
// container/heap model with the same byte-derived operation stream and
// requires identical pop sequences — including FIFO order among events
// pushed at equal times, which the byte decoding makes common on purpose.
func FuzzCalendarQueueMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xFF, 3, 3, 0x80, 7})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add([]byte{10, 20, 30, 0xFE, 0xFE, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		cal := newCalendarQueue()
		ref := newHeapQueue()
		var seq int64
		check := func() {
			if cal.len() != ref.len() {
				t.Fatalf("len mismatch: calendar %d, heap %d", cal.len(), ref.len())
			}
			ce, cok := cal.pop()
			he, hok := ref.pop()
			if cok != hok {
				t.Fatalf("pop ok mismatch: calendar %v, heap %v", cok, hok)
			}
			if ce != he {
				t.Fatalf("pop mismatch: calendar %+v, heap %+v", ce, he)
			}
		}
		for _, b := range data {
			if b&0x80 != 0 {
				check()
				continue
			}
			// 3 time bits (0.0 .. 3.5 in steps of 0.5): collisions are the
			// point — they exercise the FIFO tie-break. The low bits scale
			// occasionally into far-future times to force calendar jumps.
			at := float64(b>>4&0x7) * 0.5
			if b&0x0F == 0x0F {
				at *= 1e12
			}
			e := event{at: at, seq: seq, round: int(b)}
			seq++
			cal.push(e)
			ref.push(e)
		}
		for cal.len() > 0 || ref.len() > 0 {
			check()
		}
	})
}

// BenchmarkQueuePushPop contrasts the two eventPQ implementations on the
// engine's characteristic access pattern: a warm queue holding a few dozen
// in-flight events, each op scheduling one event slightly in the future and
// draining one.
func BenchmarkQueuePushPop(b *testing.B) {
	impls := []struct {
		name string
		mk   func() eventPQ
	}{
		{"calendar", func() eventPQ { return newCalendarQueue() }},
		{"heap", func() eventPQ { return newHeapQueue() }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			q := impl.mk()
			var seq int64
			at := 0.0
			for i := 0; i < 42; i++ {
				q.push(event{at: at + float64(i%7), seq: seq})
				seq++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at += 0.5
				q.push(event{at: at + 3, seq: seq})
				seq++
				if _, ok := q.pop(); !ok {
					b.Fatal("queue empty")
				}
			}
		})
	}
}

// heapEvents is the container/heap boilerplate over a flat event slice.
type heapEvents []event

func (q heapEvents) Len() int           { return len(q) }
func (q heapEvents) Less(i, j int) bool { return eventLess(q[i], q[j]) }
func (q heapEvents) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *heapEvents) Push(x any)        { *q = append(*q, x.(event)) }
func (q *heapEvents) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// heapQueue adapts container/heap to eventPQ. Every push boxes the event
// into an interface value — one allocation per scheduled message — which is
// why the engine runs on the calendar queue; this implementation exists as
// the reference model for the differential tests.
type heapQueue struct{ h heapEvents }

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) push(e event) { heap.Push(&q.h, e) }

func (q *heapQueue) pop() (event, bool) {
	if len(q.h) == 0 {
		return event{}, false
	}
	return heap.Pop(&q.h).(event), true
}

func (q *heapQueue) len() int { return len(q.h) }
