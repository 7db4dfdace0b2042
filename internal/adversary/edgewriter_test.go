package adversary

import (
	"math"
	"math/rand"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// recordSink captures every Send for comparison against the Messages map.
type recordSink struct {
	ks []int
	vs []float64
}

func (r *recordSink) Send(k int, value float64) {
	r.ks = append(r.ks, k)
	r.vs = append(r.vs, value)
}

// strategyPair yields two independently-constructed instances of the same
// strategy configuration: one queried via Messages, one via WriteMessages.
// Randomized strategies need separate but identically-seeded instances so
// both paths consume a fresh stream.
type strategyPair struct {
	name       string
	mapSide    Strategy
	writerSide EdgeWriter
}

func builtinPairs(n int, seed int64) []strategyPair {
	l := nodeset.New(n)
	r := nodeset.New(n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			l.Add(i)
		case 1:
			r.Add(i)
		}
	}
	return []strategyPair{
		{"conforming", Conforming{}, Conforming{}},
		{"fixed", Fixed{Value: 13.5}, Fixed{Value: 13.5}},
		{"silent", Silent{}, Silent{}},
		{"noise",
			&RandomNoise{Rng: rand.New(rand.NewSource(seed)), Lo: -2, Hi: 5},
			&RandomNoise{Rng: rand.New(rand.NewSource(seed)), Lo: -2, Hi: 5}},
		{"extremes", Extremes{Amplitude: 4}, Extremes{Amplitude: 4}},
		{"partition-attack",
			PartitionAttack{L: l, R: r, Low: -1, High: 1, Eps: 0.5},
			PartitionAttack{L: l, R: r, Low: -1, High: 1, Eps: 0.5}},
		{"hug-high", Hug{High: true}, Hug{High: true}},
		{"hug-low", Hug{}, Hug{}},
		{"insider-high", Insider{High: true}, &Insider{High: true}},
		{"insider-low", Insider{}, &Insider{}},
	}
}

// checkEquivalence asserts the EdgeWriter contract for one (view, sender):
// WriteMessages sends exactly the Messages map, keyed through OutView, in
// ascending edge order, with bit-identical values.
func checkEquivalence(t *testing.T, name string, view RoundView, sender int, mapSide Strategy, writerSide EdgeWriter) {
	t.Helper()
	msgs := mapSide.Messages(view, sender)
	var rec recordSink
	writerSide.WriteMessages(view, sender, &rec)

	outs := view.G.OutView(sender)
	if len(rec.ks) != len(msgs) {
		t.Fatalf("%s sender %d: WriteMessages sent %d values, Messages has %d entries",
			name, sender, len(rec.ks), len(msgs))
	}
	prev := -1
	for idx, k := range rec.ks {
		if k < 0 || k >= len(outs) {
			t.Fatalf("%s sender %d: edge index %d out of range [0,%d)", name, sender, k, len(outs))
		}
		if k <= prev {
			t.Fatalf("%s sender %d: edge indices not strictly ascending: %v", name, sender, rec.ks)
		}
		prev = k
		want, ok := msgs[outs[k]]
		if !ok {
			t.Fatalf("%s sender %d: WriteMessages sent on edge to %d, absent from Messages", name, sender, outs[k])
		}
		if math.Float64bits(want) != math.Float64bits(rec.vs[idx]) {
			t.Fatalf("%s sender %d -> %d: WriteMessages value %v != Messages value %v",
				name, sender, outs[k], rec.vs[idx], want)
		}
	}
}

// fuzzView builds a random graph, state vector, and omniscient view from
// fuzz-controlled bytes. Returns ok=false when the derived graph gives the
// sender no out-edges worth checking (still exercised: zero-edge senders
// must produce zero sends).
func fuzzView(nRaw uint8, seed int64, fRaw uint8, edges []byte) (RoundView, int) {
	n := 3 + int(nRaw)%8
	b := graph.NewBuilder(n)
	bit := func(idx int) bool {
		if len(edges) == 0 {
			return idx%3 != 0
		}
		byteIdx := (idx / 8) % len(edges)
		return edges[byteIdx]>>(uint(idx)%8)&1 == 1
	}
	idx := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && bit(idx) {
				b.AddEdge(i, j)
			}
			idx++
		}
	}
	g := b.MustBuild()
	rng := rand.New(rand.NewSource(seed))
	states := make([]float64, n)
	for i := range states {
		states[i] = rng.NormFloat64() * 10
	}
	sender := int(uint64(seed)>>4) % n
	faulty := nodeset.FromMembers(n, sender)
	if n > 2 {
		faulty.Add((sender + 1) % n) // a colluder, so Insider skips >1 faulty
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range states {
		if faulty.Contains(i) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return RoundView{
		Round:  1 + int(fRaw)%5,
		G:      g,
		F:      int(fRaw) % 3,
		Faulty: faulty,
		States: states,
		Lo:     lo,
		Hi:     hi,
	}, sender
}

// FuzzEdgeWriterEquivalence fuzzes the EdgeWriter contract across every
// built-in strategy: for random graphs, states, fault sets, and f, the
// WriteMessages scatter must match the Messages map exactly. A built-in's
// Messages is collect over its own WriteMessages, so for the built-ins this
// pins the collector (every Send keyed by the right receiver, nothing added
// or lost, the rng stream consumed once in ascending k); the second leg pins
// the reverse direction, mapWriter scattering a Messages map back onto the
// edges.
func FuzzEdgeWriterEquivalence(f *testing.F) {
	f.Add(uint8(5), int64(1), uint8(1), []byte{0xff, 0x3c})
	f.Add(uint8(0), int64(42), uint8(0), []byte{})
	f.Add(uint8(7), int64(-9), uint8(2), []byte{0b10101010, 0b01010101, 0x01})
	f.Add(uint8(3), int64(1<<40), uint8(4), []byte{0x00, 0x80})
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, fRaw uint8, edges []byte) {
		view, sender := fuzzView(nRaw, seed, fRaw, edges)
		for _, pair := range builtinPairs(view.G.N(), seed) {
			checkEquivalence(t, pair.name, view, sender, pair.mapSide, pair.writerSide)
		}
		for _, pair := range builtinPairs(view.G.N(), seed) {
			checkEquivalence(t, pair.name+"/mapWriter", view, sender, pair.mapSide, mapWriter{pair.writerSide})
		}
	})
}

// TestEdgeWriterEquivalenceAcrossRounds drives stateful writers (Insider's
// scratch, RandomNoise's stream) through many consecutive rounds on one
// graph, mirroring how engines actually call them. Like the fuzzer, for the
// built-ins this pins collect against the scatter it is derived from.
func TestEdgeWriterEquivalenceAcrossRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		view, sender := fuzzView(uint8(rng.Intn(256)), rng.Int63(), uint8(rng.Intn(256)), []byte{byte(rng.Intn(256)), byte(rng.Intn(256))})
		pairs := builtinPairs(view.G.N(), 1234+int64(trial))
		for round := 1; round <= 5; round++ {
			view.Round = round
			for i := range view.States {
				view.States[i] += rng.NormFloat64()
			}
			for _, pair := range pairs {
				checkEquivalence(t, pair.name, view, sender, pair.mapSide, pair.writerSide)
			}
		}
	}
}
