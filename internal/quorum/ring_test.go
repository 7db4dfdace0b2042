package quorum

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"iabc/internal/core"
)

func TestCount(t *testing.T) {
	if got := Count(7, 2); got != 5 {
		t.Fatalf("Count(7,2) = %d, want 5", got)
	}
}

func TestRingBasics(t *testing.T) {
	senders := []int{2, 5, 9}
	ib := NewRing(len(senders))
	if ib.Base() != 0 {
		t.Fatalf("fresh ring base = %d", ib.Base())
	}
	if !ib.Put(0, 1, 5.0) {
		t.Fatal("first arrival rejected")
	}
	if ib.Put(0, 1, 6.0) {
		t.Fatal("duplicate (sender, round) accepted")
	}
	if got := ib.Filled(0); got != 1 {
		t.Fatalf("Filled(0) = %d, want 1", got)
	}
	ib.Put(0, 0, 2.0)
	ib.Put(0, 2, 9.0)
	got := ib.Gather(0, senders, nil)
	want := []core.ValueFrom{{From: 2, Value: 2}, {From: 5, Value: 5}, {From: 9, Value: 9}}
	if len(got) != len(want) {
		t.Fatalf("gathered %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Gather[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	ib.Pop()
	if ib.Base() != 1 {
		t.Fatalf("base after Pop = %d, want 1", ib.Base())
	}
	if ib.Filled(1) != 0 {
		t.Fatal("round 1 not empty after Pop")
	}
}

func TestRingGrowsForRunahead(t *testing.T) {
	ib := NewRing(2)
	// A sender 40 rounds ahead forces two geometric growths; earlier
	// arrivals must survive the re-layout.
	ib.Put(0, 0, 1.0)
	ib.Put(3, 1, 4.0)
	ib.Put(40, 0, 7.0)
	if ib.Filled(0) != 1 || ib.Filled(3) != 1 || ib.Filled(40) != 1 {
		t.Fatalf("fill counts after growth: %d %d %d",
			ib.Filled(0), ib.Filled(3), ib.Filled(40))
	}
	got := ib.Gather(3, []int{10, 11}, nil)
	if len(got) != 1 || got[0] != (core.ValueFrom{From: 11, Value: 4}) {
		t.Fatalf("Gather(3) = %+v after growth", got)
	}
}

func TestRingReset(t *testing.T) {
	ib := NewRing(3)
	ib.Put(0, 0, 1.0)
	ib.Put(2, 1, 2.0)
	ib.Reset(5)
	if ib.Base() != 5 {
		t.Fatalf("base after Reset = %d, want 5", ib.Base())
	}
	for r := 5; r < 10; r++ {
		if ib.Filled(r) != 0 {
			t.Fatalf("round %d not empty after Reset", r)
		}
	}
	if !ib.Put(5, 0, 3.0) {
		t.Fatal("arrival after Reset rejected")
	}
	if ib.Filled(5) != 1 {
		t.Fatal("Reset ring does not accept fresh arrivals")
	}
}

// ringModel is the naive reference: inbox[(round, pos)] = value with
// first-arrival-wins, a base cursor, and no windowing at all.
type ringModel struct {
	vals map[[2]int]float64
	base int
}

func newRingModel() *ringModel { return &ringModel{vals: map[[2]int]float64{}} }

func (m *ringModel) put(round, pos int, v float64) bool {
	if _, dup := m.vals[[2]int{round, pos}]; dup {
		return false
	}
	m.vals[[2]int{round, pos}] = v
	return true
}

func (m *ringModel) filled(round, deg int) int {
	n := 0
	for pos := 0; pos < deg; pos++ {
		if _, ok := m.vals[[2]int{round, pos}]; ok {
			n++
		}
	}
	return n
}

func (m *ringModel) gather(round int, senders []int) []core.ValueFrom {
	var out []core.ValueFrom
	for pos := range senders {
		if v, ok := m.vals[[2]int{round, pos}]; ok {
			out = append(out, core.ValueFrom{From: senders[pos], Value: v})
		}
	}
	return out
}

func (m *ringModel) pop(deg int) {
	for pos := 0; pos < deg; pos++ {
		delete(m.vals, [2]int{m.base, pos})
	}
	m.base++
}

func (m *ringModel) reset(round int) {
	m.vals = map[[2]int]float64{}
	m.base = round
}

// checkAgainstModel compares every round of the ring's live window (plus a
// margin past it) with the model.
func checkAgainstModel(t *testing.T, ib *Ring, m *ringModel, deg int, senders []int, window int) {
	t.Helper()
	if ib.Base() != m.base {
		t.Fatalf("base: ring %d, model %d", ib.Base(), m.base)
	}
	for round := m.base; round < m.base+window; round++ {
		if got, want := ib.Filled(round), m.filled(round, deg); got != want {
			t.Fatalf("Filled(%d): ring %d, model %d", round, got, want)
		}
		got := ib.Gather(round, senders, nil)
		want := m.gather(round, senders)
		if len(got) != len(want) {
			t.Fatalf("Gather(%d): ring %d values, model %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Gather(%d)[%d]: ring %+v, model %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestRingGrowAfterWrap pins the re-layout that the basic growth test never
// reaches: growth triggered while start is nonzero (the window has wrapped
// around the slot array), for every possible start offset. The grow path
// must re-linearize the wrapped window without losing or misplacing any
// buffered arrival.
func TestRingGrowAfterWrap(t *testing.T) {
	const deg = 3
	senders := []int{4, 7, 9}
	for wrap := 0; wrap < 16; wrap++ { // 16 = two initial-capacity laps
		ib := NewRing(deg)
		m := newRingModel()
		// Advance the window so start sits at wrap % initialSlots, with live
		// arrivals straddling the wrap point.
		for r := 0; r < wrap; r++ {
			ib.Put(r, 0, float64(r))
			m.put(r, 0, float64(r))
			ib.Pop()
			m.pop(deg)
		}
		// Fill the whole current window, then one Put far past it forces a
		// (possibly repeated) growth from this exact wrap offset.
		for r := m.base; r < m.base+8; r++ {
			for pos := 0; pos < deg; pos++ {
				ib.Put(r, pos, float64(r*10+pos))
				m.put(r, pos, float64(r*10+pos))
			}
		}
		far := m.base + 40
		ib.Put(far, 1, 123.5)
		m.put(far, 1, 123.5)
		checkAgainstModel(t, ib, m, deg, senders, 48)
		// The window must still pop and refill coherently after the growth.
		for i := 0; i < 10; i++ {
			ib.Pop()
			m.pop(deg)
		}
		checkAgainstModel(t, ib, m, deg, senders, 48)
	}
}

// TestRingMatchesMap cross-checks the ring against a naive map model under a
// random workload of puts, pops, and run-ahead rounds.
func TestRingMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const deg = 4
	senders := []int{1, 3, 6, 8}
	ib := NewRing(deg)
	model := map[[2]int]float64{} // (round, pos) -> value
	base := 0
	for step := 0; step < 2000; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			round := base + rng.Intn(12)
			pos := rng.Intn(deg)
			v := rng.Float64()
			_, dup := model[[2]int{round, pos}]
			if fresh := ib.Put(round, pos, v); fresh == dup {
				t.Fatalf("step %d: Put(%d,%d) fresh=%v, model dup=%v", step, round, pos, fresh, dup)
			}
			if !dup {
				model[[2]int{round, pos}] = v
			}
		case 2:
			full := 0
			for pos := 0; pos < deg; pos++ {
				if _, ok := model[[2]int{base, pos}]; ok {
					full++
				}
			}
			if ib.Filled(base) != full {
				t.Fatalf("step %d: Filled(%d) = %d, model %d", step, base, ib.Filled(base), full)
			}
			if full == deg {
				got := ib.Gather(base, senders, nil)
				for k, pos := 0, 0; pos < deg; pos++ {
					want := core.ValueFrom{From: senders[pos], Value: model[[2]int{base, pos}]}
					if got[k] != want {
						t.Fatalf("step %d: Gather[%d] = %+v, want %+v", step, k, got[k], want)
					}
					k++
				}
				ib.Pop()
				for pos := 0; pos < deg; pos++ {
					delete(model, [2]int{base, pos})
				}
				base++
			}
		}
	}
}

// FuzzRingModel drives an op sequence decoded from the fuzz input — Put with
// arbitrary run-ahead (growth at whatever start offset the preceding Pops
// left), Pop, and Reset — and asserts full Filled/Gather/Base equivalence
// against the map model after every op. The same bytes then drive a Stepper
// (stepperAgainstModel), whose pops are its own. `go test` runs the seed
// corpus; `go test -fuzz=FuzzRingModel ./internal/quorum/` explores.
func FuzzRingModel(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0x10, 0xC3, 0x07, 0x55})       // mixed ops
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x3F, 0x00})       // pops then far put
	f.Add([]byte{0x3F, 0xC5, 0x80, 0x3F, 0x80, 0x80, 0x3F, 0xC0}) // grow, reset, grow
	f.Fuzz(func(t *testing.T, ops []byte) {
		const deg = 3
		senders := []int{2, 5, 11}
		ib := NewRing(deg)
		m := newRingModel()
		for i, op := range ops {
			switch {
			case op < 0x80: // Put: low bits choose run-ahead and position
				round := m.base + int(op>>2)%30
				pos := int(op) % deg
				v := float64(i)
				if fresh, want := ib.Put(round, pos, v), m.put(round, pos, v); fresh != want {
					t.Fatalf("op %d: Put(%d,%d) fresh=%v, model %v", i, round, pos, fresh, want)
				}
			case op < 0xC0: // Pop
				ib.Pop()
				m.pop(deg)
			default: // Reset with a forward jump
				round := m.base + int(op&0x3F)
				ib.Reset(round)
				m.reset(round)
			}
			checkAgainstModel(t, ib, m, deg, senders, 40)
		}
		stepperAgainstModel(t, ops, senders)
	})
}

// stepperAgainstModel is FuzzRingModel's second mode: the op bytes become
// inputs to a Stepper, and a model replays the Section 7 discipline naively
// — first arrival wins, advance while the current round holds a quorum,
// update through the reference rule, broadcast each new round — along with
// the ask policy: a gap asks its sender, an advance asks again the slots
// asked for the round it left, a silent tick asks every empty slot, and an
// answer is one send. Put ops deliver, then deliver the same message again
// (bit 6 additionally makes Advanced stop the node after one round; a round
// at or beyond maxRounds must be dropped). Pop ops deliver what must be
// ignored (a stale round, a forged sender, and the forged far-future rounds
// of TestStepperDropsRoundsBeyondMaxRounds) and ask for the forged rounds.
// The remaining ops Crash, Start, fire the Timer or Answer an ask, by their
// low two bits; an Answer's bits 2–3 pick the asker (two of the four are
// not out-neighbors) and bits 4–5 the round (the node's own, one ahead, or
// up to two behind, which may be negative). After every op the stepper's
// outputs, round, history and whole inbox must match the model, and the
// recorder checks on every output that no send carries a round above the
// stepper's own, that a round's sends and its Advanced report carry
// history[round], and that every ask is for an empty slot of the current
// round. A repeated delivery must emit nothing.
func stepperAgainstModel(t *testing.T, ops []byte, senders []int) {
	t.Helper()
	const (
		need      = 2 // of 3 in-neighbors, so rounds gather 2 or 3 values
		outs      = 2
		maxRounds = 12
	)
	deg := len(senders)
	rule := core.TrimmedMean{}
	rec := &recorder{t: t}
	st := NewStepper(senders, edges(outs), need, 0, maxRounds, rule, 0.5, rec)
	rec.st = st
	m := newRingModel()
	history := []float64{0.5}
	var started, progressed bool
	epoch, lastAsk := 0, -1
	asked := []int{-1, -1, -1}
	has := func(round, pos int) bool { _, ok := m.vals[[2]int{round, pos}]; return ok }
	// askEmpty appends the asks, on one fresh epoch, of every empty slot of
	// the current round that want selects.
	askEmpty := func(want []output, sel func(pos int) bool) []output {
		ep := 0
		for pos := 0; m.base < maxRounds && pos < deg; pos++ {
			if sel(pos) && !has(m.base, pos) {
				if ep == 0 {
					epoch++
					ep = epoch
				}
				asked[pos], lastAsk = m.base, m.base
				want = append(want, asks(m.base, ep, senders[pos])...)
			}
		}
		return want
	}
	for i, op := range ops {
		rec.outs = rec.outs[:0]
		var want []output
		switch {
		case op < 0x80:
			round := m.base + int(op>>2)%30
			pos := int(op) % deg
			rec.stop = op&0x40 != 0
			if err := st.Deliver(senders[pos], round, float64(i)); err != nil {
				t.Fatalf("op %d: Deliver: %v", i, err)
			}
			if round < maxRounds && m.put(round, pos, float64(i)) {
				left := m.base
				if round > left && asked[pos] != left && !has(left, pos) {
					epoch++
					asked[pos], lastAsk = left, left
					want = append(want, asks(left, epoch, senders[pos])...)
				}
				stopped := false
				for m.base < maxRounds && m.filled(m.base, deg) >= need {
					v, err := rule.Update(history[m.base], m.gather(m.base, senders), 0)
					if err != nil {
						t.Fatalf("op %d: reference update: %v", i, err)
					}
					m.pop(deg)
					history = append(history, v)
					progressed = true
					want = append(want, output{advanced: true, round: m.base, value: v})
					want = append(want, broadcast(m.base, v, 0, outs)...)
					if rec.stop {
						stopped = true
						break
					}
				}
				if !stopped && lastAsk == left && m.base > left {
					want = askEmpty(want, func(pos int) bool { return asked[pos] == left })
				}
			}
			emitted := len(rec.outs)
			if err := st.Deliver(senders[pos], round, float64(i)); err != nil {
				t.Fatalf("op %d: repeated Deliver: %v", i, err)
			}
			if len(rec.outs) != emitted {
				t.Fatalf("op %d: a repeated delivery emitted %+v", i, rec.outs[emitted:])
			}
		case op < 0xC0:
			if err := st.Deliver(senders[0], m.base-1, -1); err != nil {
				t.Fatalf("op %d: stale Deliver: %v", i, err)
			}
			if err := st.Deliver(senders[0]+1, m.base, -1); err != nil {
				t.Fatalf("op %d: forged Deliver: %v", i, err)
			}
			for _, round := range forgedRounds(maxRounds) {
				if err := st.Deliver(senders[0], round, -1); err != nil {
					t.Fatalf("op %d: far-future Deliver(%d): %v", i, round, err)
				}
				st.Answer(edges(outs)[0], round)
			}
		case op&3 == 0:
			st.Crash()
			m.reset(m.base)
			progressed, lastAsk = false, -1
			asked = []int{-1, -1, -1}
		case op&3 == 1:
			st.Start()
			ep := 0
			if started {
				epoch++
				ep = epoch
			}
			started = true
			want = broadcast(m.base, history[m.base], ep, outs)
		case op&3 == 2:
			st.Timer()
			if progressed {
				progressed = false
			} else {
				want = askEmpty(want, func(int) bool { return true })
			}
		default:
			k := int(op>>2) & 3
			round := m.base + 1 - int(op>>4)&3
			st.Answer(100+k, round)
			if k < outs && round >= 0 && round <= m.base {
				epoch++
				want = []output{{k: k, round: round, value: history[round], epoch: epoch}}
			}
		}
		if !slices.Equal(rec.outs, want) {
			t.Fatalf("op %d (%#x): outputs %+v, model %+v", i, op, rec.outs, want)
		}
		if st.Round() != m.base || !slices.Equal(st.history, history) {
			t.Fatalf("op %d: stepper at round %d with history %v, model %d with %v", i, st.Round(), st.history, m.base, history)
		}
		checkAgainstModel(t, st.inbox, m, deg, senders, 40)
	}
}

// forgedRounds are round tags no update below maxRounds ever consumes: what a
// Byzantine in-neighbor aims at ring growth.
func forgedRounds(maxRounds int) []int {
	return []int{maxRounds, maxRounds + 1, 1 << 40, math.MaxInt}
}

// TestStepperDropsRoundsBeyondMaxRounds pins the Stepper's memory bound: a
// delivery tagged with a round ≥ maxRounds from a real in-neighbor — message
// content a faulty node chooses — is dropped like a stale one, leaving round,
// value, and the inbox window untouched. Without the bound the 1<<40 delivery
// ends the process in the ring's grow (out of memory, not a panic).
func TestStepperDropsRoundsBeyondMaxRounds(t *testing.T) {
	const maxRounds = 100
	senders := []int{1, 2, 3, 4}
	rec := &recorder{t: t}
	st := NewStepper(senders, edges(1), Count(len(senders), 1), 1, maxRounds, core.TrimmedMean{}, 0.5, rec)
	rec.st = st
	slots := st.inbox.slots
	for _, round := range forgedRounds(maxRounds) {
		if err := st.Deliver(senders[0], round, 1e9); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(rec.outs) != 0 {
			t.Fatalf("round %d: a forged delivery emitted %+v", round, rec.outs)
		}
		if st.Round() != 0 || st.Value() != 0.5 || st.inbox.slots != slots || st.inbox.Filled(round) != 0 {
			t.Fatalf("round %d: stepper at (%d, %v) with %d slots, want (0, 0.5) with %d",
				round, st.Round(), st.Value(), st.inbox.slots, slots)
		}
	}
	// The last round an update does consume is still accepted, and it bounds
	// the window at maxRounds slots rounded up to the ring's doubling. It is
	// a gap, so it asks its sender for round 0.
	if err := st.Deliver(senders[0], maxRounds-1, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.take(), asks(0, 1, senders[0]); !slices.Equal(got, want) {
		t.Fatalf("the accepted round-%d delivery emitted %+v, want %+v", maxRounds-1, got, want)
	}
	if got := st.inbox.Filled(maxRounds - 1); got != 1 {
		t.Fatalf("round %d holds %d values, want 1", maxRounds-1, got)
	}
	if st.inbox.slots < maxRounds || st.inbox.slots >= 2*maxRounds {
		t.Fatalf("inbox grew to %d slots for a %d-round run", st.inbox.slots, maxRounds)
	}
	// The forged traffic cost the node nothing: a real quorum still advances it.
	for _, from := range senders[1:] {
		if err := st.Deliver(from, 0, float64(from)); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.outs) == 0 || rec.outs[0] != (output{advanced: true, round: 1, value: st.Value()}) || st.Round() != 1 {
		t.Fatalf("after a real round-0 quorum the node is at round %d having emitted %+v, want round 1", st.Round(), rec.outs)
	}
}
