package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/delayed"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
	"iabc/internal/topology"
)

// sweepStateScenarios builds a small mixed sweep for the durability tests.
func sweepStateScenarios() []Scenario {
	return []Scenario{
		{Name: "hug-high", Adversary: adversary.Hug{High: true}},
		{Name: "hug-low", Adversary: adversary.Hug{}},
		{Name: "extremes", Adversary: adversary.Extremes{Amplitude: 50}},
		{Name: "silent", Adversary: adversary.Silent{}},
	}
}

// TestSweepResumeBitIdentical interrupts a durable sweep partway, then
// re-runs it over the same store: the resumed sweep must skip the persisted
// scenarios and still produce traces bit-identical to an undisturbed sweep.
func TestSweepResumeBitIdentical(t *testing.T) {
	base := scenarioBase(t)
	scens := sweepStateScenarios()
	want, err := Sweep(context.Background(), base, scens, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	store := statestore.NewMem()
	// First run: cancel after two scenarios have completed (OnScenario fires
	// after the checkpoint write, so both are durable when the cancel lands).
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	_, err = Sweep(ctx, base, scens, SweepOptions{
		Workers: 1, Store: store,
		OnScenario: func(int, string, *Trace) {
			if done++; done == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted sweep returned no error")
	}
	if keys, err := store.List(context.Background(), "sweep/"); err != nil || len(keys) != 2 {
		t.Fatalf("store holds %d records (err %v), want 2", len(keys), err)
	}

	// Second run over the same store: two scenarios resume, two run fresh.
	var ran []string
	res, err := Sweep(context.Background(), base, scens, SweepOptions{
		Workers: 1, Store: store,
		OnScenario: func(_ int, name string, _ *Trace) { ran = append(ran, name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosResumed != 2 {
		t.Fatalf("ScenariosResumed = %d, want 2", res.ScenariosResumed)
	}
	if len(ran) != len(scens)-2 {
		t.Fatalf("resumed sweep ran %d scenarios (%v), want %d", len(ran), ran, len(scens)-2)
	}
	for i := range scens {
		assertTracesEqual(t, scens[i].Name, want.Traces[i], res.Traces[i])
	}

	// Third run: everything resumes, nothing executes.
	res, err = Sweep(context.Background(), base, scens, SweepOptions{
		Workers: 1, Store: store,
		OnScenario: func(_ int, name string, _ *Trace) { t.Errorf("scenario %s ran on a fully resumed sweep", name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosResumed != len(scens) {
		t.Fatalf("ScenariosResumed = %d, want %d", res.ScenariosResumed, len(scens))
	}
	for i := range scens {
		assertTracesEqual(t, scens[i].Name, want.Traces[i], res.Traces[i])
	}
}

// TestSweepResumeIdentityChecks pins when persisted records are trusted:
// only the exact sweep identity resumes; a different salt, a different
// scenario set, or a corrupted record re-runs — never misattributes.
func TestSweepResumeIdentityChecks(t *testing.T) {
	base := scenarioBase(t)
	scens := sweepStateScenarios()
	store := statestore.NewMem()
	ctx := context.Background()
	if _, err := Sweep(ctx, base, scens, SweepOptions{Workers: 1, Store: store}); err != nil {
		t.Fatal(err)
	}
	keys, err := store.List(ctx, "sweep/")
	if err != nil || len(keys) != len(scens) {
		t.Fatalf("List: %v (%d keys)", err, len(keys))
	}

	run := func(opts SweepOptions, scens []Scenario) int {
		t.Helper()
		opts.Workers, opts.Store = 1, store
		res, err := Sweep(ctx, base, scens, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.ScenariosResumed
	}
	if got := run(SweepOptions{}, scens); got != len(scens) {
		t.Fatalf("same identity resumed %d, want %d", got, len(scens))
	}
	if got := run(SweepOptions{StateSalt: "seed=7"}, scens); got != 0 {
		t.Fatalf("different salt resumed %d, want 0", got)
	}
	renamed := append([]Scenario(nil), scens...)
	renamed[0].Name = "renamed"
	if got := run(SweepOptions{}, renamed); got != 0 {
		t.Fatalf("different scenario set resumed %d, want 0", got)
	}

	// One record replaced by a well-formed record of a foreign identity (a
	// hash collision, a copied file), another by garbage: those two
	// scenarios re-run, the rest resume. What else makes a record unusable
	// is statestore's TestRecordLoad.
	foreign := statestore.Record{Store: store, Key: keys[0], Version: sweepStateVersion, Ident: "another sweep"}
	if err := foreign.Save(ctx, sweepScenarioBody{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(ctx, keys[1], []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if got := run(SweepOptions{}, scens); got != len(scens)-2 {
		t.Fatalf("foreign and corrupt records: resumed %d, want %d", got, len(scens)-2)
	}
}

// TestSweepStaleNotCheckpointed: a sweep under Config.Stale has no spec, so
// it runs without a Store and is refused with one (or as a worker's job).
func TestSweepStaleNotCheckpointed(t *testing.T) {
	stale := scenarioBase(t)
	stale.Stale = delayed.MaxStale{B: 3}
	scens := sweepStateScenarios()
	if _, err := Sweep(context.Background(), stale, scens, SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := Sweep(context.Background(), stale, scens, SweepOptions{Workers: 1, Store: statestore.NewMem()})
	if err == nil || !strings.Contains(err.Error(), "Config.Stale") {
		t.Fatalf("checkpointed stale sweep: %v", err)
	}
	if _, err := NewSweepSpec(stale, scens, SweepOptions{}); err == nil {
		t.Fatal("NewSweepSpec described a stale sweep")
	}
}

// TestSweepRecordGolden pins the stored bytes — key, envelope, identity and
// body — of a scenario record at sweepStateVersion. A schema change shows up
// here; it must come with a sweepStateVersion bump (which changes these
// bytes too), so that records written before it miss instead of misparsing.
func TestSweepRecordGolden(t *testing.T) {
	g, err := topology.Complete(3)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{G: g, Initial: []float64{0, 1, math.Inf(1)}, Rule: core.Mean{}, MaxRounds: 1}
	store := statestore.NewMem()
	ctx := context.Background()
	if _, err := Sweep(ctx, base, []Scenario{{Name: "only"}}, SweepOptions{
		Workers: 1, Engine: Matrix{}, Store: store, StateSalt: "s", Extras: [][]float64{{2, 3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	const key = "sweep/f3d216448a881e8c/s000000"
	const golden = `{"version":3,"ident":"{\"graph\":\"n 3\\n0 1\\n0 2\\n1 0\\n1 2\\n2 0\\n2 1\\n\",\"engine\":\"matrix\",\"salt\":\"s\",\"scenarios\":[{\"name\":\"only\",\"rule\":\"mean\",\"f\":0,\"max_rounds\":1,\"epsilon\":0,\"faulty\":[],\"initial\":[0,4607182418800017408,9218868437227405312]}],\"extras\":[[4611686018427387904,4613937818241073152,4616189618054758400]]}","body":{"index":0,"result":{"trace":{"rounds":1,"converged":false,"u":[9218868437227405312,9218868437227405312],"mu":[0,9218868437227405312],"final":[9218868437227405312,9218868437227405312,9218868437227405312],"fault_free_n":3,"fault_free":[0,1,2],"rule":"mean","adversary":"none"},"finals":[[4613937818241073152,4613937818241073152,4613937818241073152]]}}}`
	got, err := store.Read(ctx, key)
	if err != nil {
		keys, _ := store.List(ctx, "")
		t.Fatalf("reading %s: %v (store holds %v)", key, err, keys)
	}
	if string(got) != golden {
		t.Fatalf("%s (sweepStateVersion %d):\n got %s\nwant %s", key, sweepStateVersion, got, golden)
	}
}

// TestSweepResumeParallelAndRunner exercises the durable sweep on the
// parallel path and through the Runner hook together: a Runner-backed sweep
// persists what the Runner returns, and the resumed result is bit-identical.
func TestSweepResumeParallelAndRunner(t *testing.T) {
	base := scenarioBase(t)
	scens := sweepStateScenarios()
	want, err := Sweep(context.Background(), base, scens, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	store := statestore.NewMem()
	res, err := Sweep(context.Background(), base, scens, SweepOptions{
		Workers: 4, Store: store,
		Runner: func(ctx context.Context, index int, cfg *Config, extras [][]float64) (*Trace, [][]float64, error) {
			tr, err := Sequential{}.Run(*cfg)
			return tr, nil, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		assertTracesEqual(t, scens[i].Name, want.Traces[i], res.Traces[i])
	}

	// Resume with the default engine (no Runner): identity matches because
	// the Runner produced engine-identical traces under the same engine name.
	res, err = Sweep(context.Background(), base, scens, SweepOptions{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosResumed != len(scens) {
		t.Fatalf("ScenariosResumed = %d, want %d", res.ScenariosResumed, len(scens))
	}
	for i := range scens {
		assertTracesEqual(t, scens[i].Name, want.Traces[i], res.Traces[i])
	}
}

// TestScenarioResultRoundTrip pins the bit-exactness of the shared scenario
// result codec, non-finite floats included.
func TestScenarioResultRoundTrip(t *testing.T) {
	tr := &Trace{
		Rounds: 1, Converged: true,
		U:         []float64{math.NaN(), math.Inf(1)},
		Mu:        []float64{math.Inf(-1), 1.5},
		States:    [][]float64{{1, -0.0}, {math.NaN(), -3}},
		Final:     []float64{0.1, 0.2},
		FaultFree: nodeset.FromMembers(2, 1),
		RuleName:  "trimmed-mean", AdversaryName: "hug-high",
	}
	finals := [][]float64{{math.Inf(1), -0.0}, nil}
	raw, err := EncodeScenarioResult(tr, finals)
	if err != nil {
		t.Fatal(err)
	}
	got, gotFinals, err := DecodeScenarioResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, "round-trip", tr, got)
	if len(gotFinals) != len(finals) {
		t.Fatalf("finals length %d, want %d", len(gotFinals), len(finals))
	}
	for i := range finals {
		if len(gotFinals[i]) != len(finals[i]) {
			t.Fatalf("finals[%d] length %d, want %d", i, len(gotFinals[i]), len(finals[i]))
		}
		for j := range finals[i] {
			if math.Float64bits(gotFinals[i][j]) != math.Float64bits(finals[i][j]) {
				t.Fatalf("finals[%d][%d] = %x, want %x", i, j,
					math.Float64bits(gotFinals[i][j]), math.Float64bits(finals[i][j]))
			}
		}
	}
	if _, _, err := DecodeScenarioResult([]byte("{broken")); err == nil ||
		!strings.Contains(err.Error(), "decoding scenario result") {
		t.Fatalf("corrupt decode error = %v", err)
	}
}

// TestScenarioResultMembersOutOfRange: a result whose fault-free set names
// a node outside [0, n) is an error when a worker reports it and a miss when
// a state dir holds it, never a panic.
func TestScenarioResultMembersOutOfRange(t *testing.T) {
	for _, raw := range []string{
		`{"trace":{"rounds":0,"u":[0],"mu":[0],"final":[0,0,0],"fault_free_n":3,"fault_free":[5]}}`,
		`{"trace":{"rounds":0,"u":[0],"mu":[0],"final":[],"fault_free_n":-1,"fault_free":[]}}`,
		`{"trace":{"rounds":0,"u":[0],"mu":[0],"final":[0],"fault_free_n":4611686018427387904,"fault_free":[]}}`,
	} {
		if _, _, err := DecodeScenarioResult([]byte(raw)); err == nil {
			t.Errorf("DecodeScenarioResult accepted %s", raw)
		}
	}

	base := scenarioBase(t)
	scens := sweepStateScenarios()
	store := statestore.NewMem()
	ctx := context.Background()
	if _, err := Sweep(ctx, base, scens, SweepOptions{Workers: 1, Store: store}); err != nil {
		t.Fatal(err)
	}
	keys, err := store.List(ctx, "sweep/")
	if err != nil || len(keys) != len(scens) {
		t.Fatalf("List: %v (%d keys)", err, len(keys))
	}
	// Rewrite one record in place: same key, envelope and identity, with a
	// fault-free member past n.
	rec, err := store.Read(ctx, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	n := base.G.N()
	bad := strings.Replace(string(rec), `"fault_free":[`, fmt.Sprintf(`"fault_free":[%d,`, n+5), 1)
	if bad == string(rec) {
		t.Fatalf("record has no fault_free list: %s", rec)
	}
	if err := store.Write(ctx, keys[0], []byte(bad)); err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(ctx, base, scens, SweepOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosResumed != len(scens)-1 {
		t.Fatalf("ScenariosResumed = %d, want %d (the bad record re-runs)", res.ScenariosResumed, len(scens)-1)
	}
}

// respec resolves a spec and describes the configs again — the worker's
// view of a spec, re-encoded.
func respec(s *SweepSpec) ([]byte, error) {
	engine, cfgs, err := s.Resolve()
	if err != nil || len(cfgs) == 0 {
		return nil, err
	}
	scens := make([]Scenario, len(cfgs))
	for i := range scens {
		scens[i].Name = s.Scenarios[i].Name
	}
	spec, err := describeSweep(engine.Name(), s.StateSalt, cfgs, scens, s.Extras)
	if err != nil {
		return nil, err
	}
	return spec.Encode()
}

// FuzzSweepSpec: decoding and resolving arbitrary bytes never panics, and
// a spec that resolves re-encodes to a fixed point. The seeds, one spec per
// conformance config on each engine, must round-trip byte for byte: through
// the codec always, and through Resolve exactly when every strategy has a
// canonical name.
func FuzzSweepSpec(f *testing.F) {
	for k, sc := range conformanceScenarios() {
		base := sc.buildConfig(f, false)
		opts := SweepOptions{Engine: Sequential{}}
		if k%2 == 1 {
			opts = SweepOptions{Engine: Matrix{}, StateSalt: sc.name, Extras: [][]float64{base.Initial}}
		}
		spec, err := NewSweepSpec(base, []Scenario{{Name: sc.name}, {HasFaulty: true, MaxRounds: 3}}, opts)
		if err != nil {
			f.Fatalf("%s: %v", sc.name, err)
		}
		raw, err := spec.Encode()
		if err != nil {
			f.Fatal(err)
		}
		dec, err := DecodeSweepSpec(raw)
		if err != nil {
			f.Fatalf("%s: %v", sc.name, err)
		}
		if re, _ := dec.Encode(); string(re) != string(raw) {
			f.Fatalf("%s: codec round trip\n got %s\nwant %s", sc.name, re, raw)
		}
		re, err := respec(dec)
		if spec.Scenarios[0].Unnamed {
			if err == nil || !strings.Contains(err.Error(), "not a named built-in") {
				f.Fatalf("%s: unnamed strategy resolved (err %v)", sc.name, err)
			}
		} else if err != nil || string(re) != string(raw) {
			f.Fatalf("%s: Resolve round trip (err %v)\n got %s\nwant %s", sc.name, err, re, raw)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"graph":"n 3\n0 1\n1 2\n2 0\n","engine":"sequential","scenarios":[{"rule":"mean","faulty":[7],"initial":[0,0,0]}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := DecodeSweepSpec(raw)
		if err != nil {
			return
		}
		// Keep the graph parser's allocation, which is linear in the
		// declared order, small.
		for _, line := range strings.Split(spec.Graph, "\n") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "n %d", &n); err == nil && n > 1<<10 {
				return
			}
		}
		once, err := respec(spec)
		if err != nil || once == nil {
			return
		}
		again, err := DecodeSweepSpec(once)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\n%s", err, once)
		}
		twice, err := respec(again)
		if err != nil || string(twice) != string(once) {
			t.Fatalf("not a fixed point (err %v)\nonce  %s\ntwice %s", err, once, twice)
		}
	})
}
