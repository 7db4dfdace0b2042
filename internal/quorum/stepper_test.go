package quorum

import (
	"slices"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// output is one thing a Stepper or Emitter emitted: an Advanced report
// (advanced set, k and epoch zero) or a Send.
type output struct {
	advanced bool
	k, round int
	value    float64
	epoch    int
}

// recorder is an Outbox that logs every output in order. With st set it
// checks the actor's invariants at the moment of each output: no send
// carries a round above the stepper's own, every send of round k carries
// history[k], and Advanced reports the round the stepper is now at with
// the value history holds for it.
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

// policyStepper returns a stepper with one in-neighbor (node 1, quorum 1)
// and two out-edges, so each delivery of its current round advances it.
func policyStepper(t *testing.T) (*Stepper, *recorder) {
	rec := &recorder{t: t}
	st := NewStepper([]int{1}, 2, 1, 0, 100, core.TrimmedMean{}, 0.5, rec)
	rec.st = st
	return st, rec
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
	rec := &recorder{t: t}
	st := NewStepper([]int{1, 2, 3}, 3, 2, 0, 10, core.TrimmedMean{}, 0.5, rec)
	rec.st = st
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
	// though the inbox holds a quorum for the next round too.
	rec.stop = true
	for _, d := range [][2]int{{1, 2}, {2, 2}, {1, 1}, {2, 1}} {
		if err := st.Deliver(d[0], d[1], 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.take(); len(got) != 4 || !got[0].advanced || st.Round() != 2 {
		t.Fatalf("a stopped advance emitted %+v at round %d, want round 2's Advanced and broadcast", got, st.Round())
	}
	if st.inbox.Filled(2) != 2 {
		t.Fatalf("the stopped node holds %d round-2 values, want its full quorum of 2", st.inbox.Filled(2))
	}
}

func TestStepperIgnoredDeliveriesEmitNothing(t *testing.T) {
	rec := &recorder{t: t}
	st := NewStepper([]int{1, 2, 3}, 2, 2, 0, 10, core.TrimmedMean{}, 0.5, rec)
	rec.st = st
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
	for i := 0; i < 3; i++ {
		st.Timer() // silence grows the backoff to 8
	}
	advanceTo(t, st, rec, 2)
	if got := st.Timer(); got != 1 {
		t.Fatalf("Timer after progress = %d, want the backoff reset to 1", got)
	}
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("Timer after progress emitted %+v", got)
	}
}

func TestStepperTimerAfterSilence(t *testing.T) {
	st, rec := policyStepper(t)
	st.Start()
	advanceTo(t, st, rec, 10)
	st.Timer() // consumes the progress
	backoff := 1
	for epoch := 1; epoch <= 2*deepResendEvery; epoch++ {
		got := st.Timer()
		backoff = min(2*backoff, maxResendBackoffFactor)
		if got != backoff {
			t.Fatalf("silent Timer %d = %d, want %d", epoch, got, backoff)
		}
		lo := 10 - shallowResendDepth
		if epoch%deepResendEvery == 0 {
			lo = 0 // the deep pass covers the whole history
		}
		var want []output
		for k := 10; k >= lo; k-- {
			want = append(want, broadcast(k, st.history[k], epoch, 2)...)
		}
		if got := rec.take(); !slices.Equal(got, want) {
			t.Fatalf("silent Timer %d emitted %+v, want rounds 10..%d newest first on epoch %d: %+v", epoch, got, lo, epoch, want)
		}
	}
	if backoff != maxResendBackoffFactor {
		t.Fatalf("backoff ended at %d, want the cap %d", backoff, maxResendBackoffFactor)
	}
}

func TestStepperCrashKeepsDurableState(t *testing.T) {
	rec := &recorder{t: t}
	st := NewStepper([]int{1, 2, 3}, 2, 2, 0, 10, core.TrimmedMean{}, 0.5, rec)
	rec.st = st
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
	round, value, history := st.Round(), st.Value(), slices.Clone(st.history)
	st.Crash()
	if st.Round() != round || st.Value() != value || !slices.Equal(st.history, history) {
		t.Fatalf("Crash moved the node from (%d, %v, %v) to (%d, %v, %v)", round, value, history, st.Round(), st.Value(), st.history)
	}
	if st.inbox.Filled(round) != 0 {
		t.Fatalf("Crash kept %d buffered round-%d values", st.inbox.Filled(round), round)
	}
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("Crash emitted %+v", got)
	}
	// The buffered value is gone: one more arrival no longer fills the
	// quorum, and the backoff starts over.
	if err := st.Deliver(2, 1, 7); err != nil {
		t.Fatal(err)
	}
	if st.Round() != round {
		t.Fatalf("a quorum completed from an inbox Crash should have dropped")
	}
	if got := st.Timer(); got != 2 {
		t.Fatalf("first silent Timer after Crash = %d, want 2", got)
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
