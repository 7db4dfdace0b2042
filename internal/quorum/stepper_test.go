package quorum

import (
	"math"
	"slices"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// output is one thing a Stepper or Emitter emitted: an Advanced report
// (advanced set, k and epoch zero), an Ask (ask set, k the asked node) or a
// Send (k the out-edge).
type output struct {
	advanced bool
	ask      bool
	k, round int
	value    float64
	epoch    int
}

// recorder is an Outbox that logs every output in order. With st set it
// checks the actor's invariants at the moment of each output: no send
// carries a round above the stepper's own, every send of round k carries
// history[k], every ask names an in-neighbor whose slot of the stepper's
// current round is empty, and Advanced reports the round the stepper is
// now at with the value history holds for it.
type recorder struct {
	t    *testing.T
	st   *Stepper
	stop bool // Advanced returns !stop
	outs []output
}

func (r *recorder) Send(k, round int, value float64, epoch int) {
	r.t.Helper()
	if r.st != nil && (round > r.st.Round() || value != r.st.history[round]) {
		r.t.Fatalf("send of (%d, %v) from a stepper at round %d with history %v", round, value, r.st.Round(), r.st.history)
	}
	r.outs = append(r.outs, output{k: k, round: round, value: value, epoch: epoch})
}

func (r *recorder) Ask(from, round, epoch int) {
	r.t.Helper()
	if r.st != nil {
		pos, ok := slices.BinarySearch(r.st.ins, from)
		if !ok || round != r.st.Round() || round >= r.st.maxRounds || r.st.inbox.Has(round, pos) {
			r.t.Fatalf("ask of %d for round %d from a stepper at round %d (in-neighbors %v)", from, round, r.st.Round(), r.st.ins)
		}
	}
	r.outs = append(r.outs, output{ask: true, k: from, round: round, epoch: epoch})
}

func (r *recorder) Advanced(round int, value float64) bool {
	r.t.Helper()
	if r.st != nil && (round != r.st.Round() || value != r.st.history[round]) {
		r.t.Fatalf("Advanced(%d, %v) from a stepper at round %d with history %v", round, value, r.st.Round(), r.st.history)
	}
	r.outs = append(r.outs, output{advanced: true, round: round, value: value})
	return !r.stop
}

// take returns the outputs logged since the last take.
func (r *recorder) take() []output {
	outs := slices.Clone(r.outs)
	r.outs = r.outs[:0]
	return outs
}

// broadcast is the expected output of sending (round, value) on every one
// of outs out-edges under epoch.
func broadcast(round int, value float64, epoch, outs int) []output {
	var b []output
	for k := 0; k < outs; k++ {
		b = append(b, output{k: k, round: round, value: value, epoch: epoch})
	}
	return b
}

// asks is the expected output of asking each of froms for round under epoch.
func asks(round, epoch int, froms ...int) []output {
	var b []output
	for _, from := range froms {
		b = append(b, output{ask: true, k: from, round: round, epoch: epoch})
	}
	return b
}

// edges returns the out-neighbor list 100, 101, … of a stepper with outs
// out-edges.
func edges(outs int) []int {
	e := make([]int, outs)
	for k := range e {
		e[k] = 100 + k
	}
	return e
}

// newStepper returns a stepper over ins with outs out-edges, quorum need,
// f = 0 and the given maxRounds, wired to a checking recorder.
func newStepper(t *testing.T, ins []int, outs, need, maxRounds int) (*Stepper, *recorder) {
	rec := &recorder{t: t}
	st := NewStepper(ins, edges(outs), need, 0, maxRounds, core.TrimmedMean{}, 0.5, rec)
	rec.st = st
	return st, rec
}

// policyStepper returns a stepper with one in-neighbor (node 1, quorum 1)
// and two out-edges, so each delivery of its current round advances it.
func policyStepper(t *testing.T) (*Stepper, *recorder) {
	return newStepper(t, []int{1}, 2, 1, 100)
}

// advanceTo delivers rounds until st reaches round, discarding the outputs.
func advanceTo(t *testing.T, st *Stepper, rec *recorder, round int) {
	t.Helper()
	for r := st.Round(); r < round; r++ {
		if err := st.Deliver(1, r, float64(r)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Round() != round {
		t.Fatalf("stepper at round %d, want %d", st.Round(), round)
	}
	rec.take()
}

func TestStepperStartEpochs(t *testing.T) {
	st, rec := policyStepper(t)
	st.Start()
	if got, want := rec.take(), broadcast(0, 0.5, 0, 2); !slices.Equal(got, want) {
		t.Fatalf("first Start emitted %+v, want %+v", got, want)
	}
	advanceTo(t, st, rec, 3)
	st.Crash()
	st.Start()
	if got, want := rec.take(), broadcast(3, st.Value(), 1, 2); !slices.Equal(got, want) {
		t.Fatalf("Start after Crash emitted %+v, want the current round on epoch 1: %+v", got, want)
	}
	st.Crash()
	st.Start()
	if got := rec.take(); len(got) != 2 || got[0].epoch != 2 {
		t.Fatalf("second restart emitted %+v, want a fresh epoch 2", got)
	}
}

func TestStepperAdvanceReportsThenBroadcasts(t *testing.T) {
	st, rec := newStepper(t, []int{1, 2, 3}, 3, 2, 10)
	if err := st.Deliver(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("a partial quorum emitted %+v", got)
	}
	if err := st.Deliver(3, 0, 2); err != nil {
		t.Fatal(err)
	}
	want := append([]output{{advanced: true, round: 1, value: st.Value()}}, broadcast(1, st.Value(), 0, 3)...)
	if got := rec.take(); !slices.Equal(got, want) {
		t.Fatalf("a completed round emitted %+v, want %+v", got, want)
	}
	// Advanced returning false stops the node after that round's broadcast,
	// though the inbox holds a quorum for the next round too. The round-2
	// values arrive first, so each is a gap that asks its sender for round
	// 1; the stopped node asks nothing for round 2.
	rec.stop = true
	for _, d := range [][2]int{{1, 2}, {2, 2}, {1, 1}, {2, 1}} {
		if err := st.Deliver(d[0], d[1], 3); err != nil {
			t.Fatal(err)
		}
	}
	want = append(asks(1, 1, 1), asks(1, 2, 2)...)
	want = append(want, output{advanced: true, round: 2, value: st.Value()})
	want = append(want, broadcast(2, st.Value(), 0, 3)...)
	if got := rec.take(); !slices.Equal(got, want) || st.Round() != 2 {
		t.Fatalf("a stopped advance emitted %+v at round %d, want the gap asks, then round 2's Advanced and broadcast: %+v", got, st.Round(), want)
	}
	if st.inbox.Filled(2) != 2 {
		t.Fatalf("the stopped node holds %d round-2 values, want its full quorum of 2", st.inbox.Filled(2))
	}
}

func TestStepperIgnoredDeliveriesEmitNothing(t *testing.T) {
	st, rec := newStepper(t, []int{1, 2, 3}, 2, 2, 10)
	for _, from := range []int{1, 2} {
		if err := st.Deliver(from, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	rec.take()
	for _, d := range []struct {
		name        string
		from, round int
	}{
		{"stale", 3, 0},
		{"first of round 1", 1, 1},
		{"duplicate", 1, 1},
		{"non-neighbor", 4, 1},
		{"beyond maxRounds", 2, 10},
	} {
		if err := st.Deliver(d.from, d.round, 9); err != nil {
			t.Fatal(err)
		}
		if got := rec.take(); len(got) != 0 {
			t.Fatalf("%s delivery emitted %+v", d.name, got)
		}
	}
	if st.Round() != 1 || st.inbox.Filled(1) != 1 {
		t.Fatalf("stepper at round %d holding %d round-1 values, want round 1 holding 1", st.Round(), st.inbox.Filled(1))
	}
}

func TestStepperTimerAfterProgressResendsNothing(t *testing.T) {
	st, rec := policyStepper(t)
	st.Start()
	advanceTo(t, st, rec, 2)
	st.Timer()
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("Timer after progress emitted %+v", got)
	}
	// The tick consumed the progress: the next one is silent and asks.
	st.Timer()
	if got, want := rec.take(), asks(2, 1, 1); !slices.Equal(got, want) {
		t.Fatalf("silent Timer after a consumed tick emitted %+v, want %+v", got, want)
	}
}

// TestStepperTimerAfterSilence pins the tick's ask policy: every silent tick
// asks each empty slot of the current round once, on one fresh epoch, and
// nothing else — no history, no backoff; a filled slot is never asked, and
// a node at maxRounds, which needs no value, asks nothing.
func TestStepperTimerAfterSilence(t *testing.T) {
	st, rec := newStepper(t, []int{1, 2, 3}, 2, 2, 3)
	st.Start()
	rec.take()
	for epoch := 1; epoch <= 3; epoch++ {
		st.Timer()
		if got, want := rec.take(), asks(0, epoch, 1, 2, 3); !slices.Equal(got, want) {
			t.Fatalf("silent Timer %d emitted %+v, want %+v", epoch, got, want)
		}
	}
	if err := st.Deliver(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	st.Timer()
	if got, want := rec.take(), asks(0, 4, 1, 3); !slices.Equal(got, want) {
		t.Fatalf("silent Timer with node 2's slot filled emitted %+v, want %+v", got, want)
	}
	for r := 0; r < 3; r++ {
		for _, from := range []int{1, 2, 3} {
			if err := st.Deliver(from, r, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec.take()
	if st.Round() != 3 {
		t.Fatalf("stepper at round %d, want maxRounds 3", st.Round())
	}
	st.Timer() // consumes the progress
	st.Timer()
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("a silent Timer at maxRounds emitted %+v", got)
	}
}

// TestStepperAsksOnGap pins the gap trigger: a fresh value for a later round
// from an in-neighbor whose current slot is empty asks that in-neighbor for
// the current round at once, and only once per round — a second later
// round from it, a duplicate, a stale round and a later round from an
// in-neighbor already heard from all ask nothing.
func TestStepperAsksOnGap(t *testing.T) {
	st, rec := newStepper(t, []int{1, 2, 3}, 2, 2, 10)
	st.Start()
	rec.take()
	if err := st.Deliver(3, 2, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.take(), asks(0, 1, 3); !slices.Equal(got, want) {
		t.Fatalf("a gap from node 3 emitted %+v, want %+v", got, want)
	}
	if err := st.Deliver(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name        string
		from, round int
	}{
		{"second gap from the asked node", 3, 1},
		{"duplicate gap", 3, 2},
		{"later round from a node heard from", 1, 4},
	} {
		if err := st.Deliver(d.from, d.round, 7); err != nil {
			t.Fatal(err)
		}
		if got := rec.take(); len(got) != 0 {
			t.Fatalf("%s emitted %+v", d.name, got)
		}
	}
	// Node 3's answer completes round 0. It was asked for round 0 and has
	// round 1 buffered, so the pipeline owes it nothing; node 2 was never
	// asked, so neither is it now.
	if err := st.Deliver(3, 0, 6); err != nil {
		t.Fatal(err)
	}
	got := rec.take()
	if st.Round() != 1 || len(got) != 3 || !got[0].advanced {
		t.Fatalf("round 0's completion emitted %+v at round %d, want Advanced and a broadcast only", got, st.Round())
	}
	// A gap in round 1 from node 2, which never sent round 1, asks it.
	if err := st.Deliver(2, 3, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.take(), asks(1, 2, 2); !slices.Equal(got, want) {
		t.Fatalf("a round-1 gap from node 2 emitted %+v, want %+v", got, want)
	}
}

// TestStepperPipelinesCatchUp pins the pipeline trigger: a stepper 1 000
// rounds behind its peers, which hold every round and answer every ask at
// once, reaches their round with no Timer after the first tick — each
// completed round asks again, for the next one, exactly the slots it had
// asked and still lacks, one ask per slot per round.
func TestStepperPipelinesCatchUp(t *testing.T) {
	const behind = 1000
	ins := []int{1, 2, 3, 4}
	st, rec := newStepper(t, ins, 2, Count(len(ins), 1), behind)
	st.Start()
	rec.take()
	st.Timer()
	pending := rec.take()
	if want := asks(0, 1, ins...); !slices.Equal(pending, want) {
		t.Fatalf("first tick emitted %+v, want %+v", pending, want)
	}
	askCount := len(pending)
	for len(pending) > 0 {
		o := pending[0]
		pending = pending[1:]
		if !o.ask {
			continue
		}
		if err := st.Deliver(o.k, o.round, float64(o.k)); err != nil {
			t.Fatal(err)
		}
		for _, out := range rec.take() {
			if out.ask {
				if out.round != st.Round() {
					t.Fatalf("ask %+v from a stepper at round %d", out, st.Round())
				}
				askCount++
				pending = append(pending, out)
			}
		}
	}
	if st.Round() != behind {
		t.Fatalf("caught up to round %d, want %d", st.Round(), behind)
	}
	// The quorum fills on 3 of the 4 answers. The 4th arrives stale, but its
	// slot was asked for the round the advance left, so the pipeline asked
	// it for the next round too: every round asks each slot exactly once.
	if want := len(ins) * behind; askCount != want {
		t.Fatalf("%d asks to catch up %d rounds, want one per slot per round: %d", askCount, behind, want)
	}
}

// TestStepperAnswerBounds pins what an ask can cost its target: one Send of
// history[round] on the asker's edge, on a fresh epoch, when the round is
// at or below the answerer's own and the asker is an out-neighbor; every
// other ask — forged far-future rounds, a round ahead of the answerer,
// negative rounds, an asker the answerer has no edge to — emits nothing.
func TestStepperAnswerBounds(t *testing.T) {
	st, rec := policyStepper(t) // out-neighbors 100 and 101
	st.Start()
	advanceTo(t, st, rec, 5)
	for _, round := range append(forgedRounds(st.maxRounds), st.Round()+1, -1, -2, math.MinInt) {
		st.Answer(101, round)
		if got := rec.take(); len(got) != 0 {
			t.Fatalf("ask for round %d emitted %+v", round, got)
		}
	}
	for _, to := range []int{1, 99, 102, -1} {
		st.Answer(to, 2)
		if got := rec.take(); len(got) != 0 {
			t.Fatalf("ask from non-out-neighbor %d emitted %+v", to, got)
		}
	}
	for i, round := range []int{0, 3, 5} {
		st.Answer(101, round)
		want := []output{{k: 1, round: round, value: st.history[round], epoch: i + 1}}
		if got := rec.take(); !slices.Equal(got, want) {
			t.Fatalf("ask for round %d emitted %+v, want %+v", round, got, want)
		}
	}
}

// TestStepperCrashClearsAsked pins that the ask record is volatile: after a
// Crash no slot counts as asked, so the pipeline has nothing to follow and
// a gap asks again for a round asked before the crash.
func TestStepperCrashClearsAsked(t *testing.T) {
	st, rec := newStepper(t, []int{1, 2, 3}, 2, 2, 10)
	st.Start()
	st.Timer()
	rec.take()
	st.Crash()
	for pos, a := range st.asked {
		if a != -1 {
			t.Fatalf("after Crash slot %d still counts as asked for round %d", pos, a)
		}
	}
	if st.lastAsk != -1 {
		t.Fatalf("after Crash lastAsk = %d, want -1", st.lastAsk)
	}
	if err := st.Deliver(2, 1, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.take(), asks(0, 2, 2); !slices.Equal(got, want) {
		t.Fatalf("a gap after Crash emitted %+v, want %+v", got, want)
	}
}

func TestStepperCrashKeepsDurableState(t *testing.T) {
	st, rec := newStepper(t, []int{1, 2, 3}, 2, 2, 10)
	for _, from := range []int{1, 2} {
		if err := st.Deliver(from, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Deliver(1, 1, 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st.Timer()
	}
	rec.take()
	round, value, history, epoch := st.Round(), st.Value(), slices.Clone(st.history), st.epoch
	st.Crash()
	if st.Round() != round || st.Value() != value || !slices.Equal(st.history, history) || st.epoch != epoch {
		t.Fatalf("Crash moved the node from (%d, %v, %v, epoch %d) to (%d, %v, %v, epoch %d)",
			round, value, history, epoch, st.Round(), st.Value(), st.history, st.epoch)
	}
	if st.inbox.Filled(round) != 0 {
		t.Fatalf("Crash kept %d buffered round-%d values", st.inbox.Filled(round), round)
	}
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("Crash emitted %+v", got)
	}
	// The buffered value is gone: one more arrival no longer fills the
	// quorum, and the first tick asks for every slot still empty.
	if err := st.Deliver(2, 1, 7); err != nil {
		t.Fatal(err)
	}
	if st.Round() != round {
		t.Fatalf("a quorum completed from an inbox Crash should have dropped")
	}
	st.Timer()
	if got, want := rec.take(), asks(round, epoch+1, 1, 3); !slices.Equal(got, want) {
		t.Fatalf("first Timer after Crash emitted %+v, want %+v", got, want)
	}
}

// TestEmitterScattersEachRoundOnce pins the faulty half: one batch per Emit
// in round order, on epoch 0, with rounds 0 through maxRounds emitted.
func TestEmitterScattersEachRoundOnce(t *testing.T) {
	g, err := topology.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{t: t}
	faulty := nodeset.FromMembers(4, 0)
	em := NewEmitter(0, g, 1, faulty, faulty.Complement(), 2, adversary.Fixed{Value: 9}, rec)
	states := []float64{0, 1, 2, 3}
	for round, wantMore := range []bool{true, true, false} {
		if more := em.Emit(states); more != wantMore {
			t.Fatalf("Emit of round %d reported more=%v", round, more)
		}
		if got, want := rec.take(), broadcast(round, 9, 0, 3); !slices.Equal(got, want) {
			t.Fatalf("round %d emitted %+v, want %+v", round, got, want)
		}
	}
}

func TestMinRound(t *testing.T) {
	if got := MinRound([]int{5, 3, 9}, nodeset.FromMembers(3, 0, 2)); got != 5 {
		t.Errorf("MinRound = %d, want 5", got)
	}
}
