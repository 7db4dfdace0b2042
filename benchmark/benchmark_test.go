package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"iabc"
	"iabc/internal/adversary"
	"iabc/internal/core"
)

// short is the tier-1 scale: one warm-up and three ops per workload.
var short = scale{seconds: 0.01, warmups: 1, minOps: 3, setupRepeats: 1}

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	return &env{seed: seed, procs: 2, dir: t.TempDir()}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}, {0.25, 2}} {
		if got := percentile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestEndToEndMetrics(t *testing.T) {
	// Four ops of 1 s doing 10, 10, 30 and (failed) 0 units, 8 MB allocated.
	p := &pass{durNs: []int64{1e9, 1e9, 1e9, 1e9}, work: []float64{10, 10, 30, 0}, failed: 1, allocBytes: 8e6}
	m := endToEndMetrics(p, []time.Duration{3 * time.Second, time.Second, 2 * time.Second})
	want := map[string]float64{"op_mean_ms": 1000, "work_per_s": 12.5, "alloc_mb_per_op": 2, "setup_s": 2}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %g, want %g", name, m[name], v)
		}
	}
	if len(m) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics computed, %d listed", len(m), len(endToEnd))
	}
}

func TestSpansAndSelfShare(t *testing.T) {
	rec := newRecorder()
	start := rec.epoch
	id := rec.root("op", "w", 7, start, start.Add(100*time.Nanosecond), 1)
	rec.child(id, "core.update", 30, 5)
	rec.child(id, "adversary.write", 20, 2)
	if got := selfShare(100, 30, 20); got != 0.5 {
		t.Errorf("self share = %g, want 0.5", got)
	}
	// Children that overlap on a parallel op may outlast it.
	if got := selfShare(40, 90); got != 0 {
		t.Errorf("self share of an over-covered span = %g, want 0", got)
	}
	child := rec.spans[1]
	if child.Parent != id || child.Op != 7 || child.Workload != "w" || child.Count != 5 || child.durNs() != 30 {
		t.Errorf("child span %+v does not share its op's identity", child)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != len(rec.spans) {
		t.Errorf("trace file holds %d spans (%v), want %d", len(doc.Spans), err, len(rec.spans))
	}
}

// The wrappers must keep the fast paths, or the traced pass measures another
// program than the untraced one.
func TestSeamsKeepFastPaths(t *testing.T) {
	s := &seams{}
	if _, ok := s.rule(iabc.TrimmedMean{}).(core.BufferedRule); !ok {
		t.Error("rule seam is not a core.BufferedRule")
	}
	for _, sc := range benchScenarios() {
		if _, ok := s.adversary(sc.Adversary).(adversary.EdgeWriter); !ok {
			t.Errorf("adversary seam around %s is not an adversary.EdgeWriter", sc.Adversary.Name())
		}
	}
	var _ iabc.Transport = &transportSeam{}
	var _ iabc.StateBackend = &backendSeam{}

	rule := s.rule(iabc.TrimmedMean{}).(core.BufferedRule)
	received := []core.ValueFrom{{From: 1, Value: 1}, {From: 2, Value: 2}, {From: 3, Value: 9}}
	var scratch core.Scratch
	got, err := rule.UpdateInto(&scratch, 2, received, 1)
	want, _ := iabc.TrimmedMean{}.Update(2, received, 1)
	if err != nil || got != want {
		t.Errorf("rule seam returned %g (%v), the rule %g", got, err, want)
	}
	if s.ruleC.calls.Load() != 1 {
		t.Errorf("rule seam counted %d calls, want 1", s.ruleC.calls.Load())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json and the tables in spec.go and workloads.go say the same.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("BENCHMARK.json has the extra key %q", key)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range got {
			if d != want[i] {
				t.Errorf("%s metric %d is %+v, the program has %+v", kind, i, d, want[i])
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] ||
				(d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %+v breaks the naming rules", kind, d)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s metric %s has bound %g", kind, d.Name, d.Bound)
			}
			seen[d.Name] = true
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// Every workload at the tier-1 scale: both passes run, every op passes its
// check, every name printed is one BENCHMARK.json lists, the contract line
// has the contract's shape, a second seed gives other inputs that pass too,
// and a wrong oracle fails every op — the checks really fire.
func TestWorkloads(t *testing.T) {
	listed := map[string]bool{"fail_share": true}
	for _, d := range endToEnd {
		listed[d.Name] = true
	}
	for _, d := range perLayer {
		listed[d.Name] = true
	}
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here reads a clock; two at a time halves the wait
			e := testEnv(t, 1)
			rec := newRecorder()
			res, err := untracedPass(ctx, w, e, short)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := tracedPass(ctx, w, e, short, rec)
			if err != nil {
				t.Fatal(err)
			}
			res.PerLayer = traced.PerLayer
			if res.Failed+traced.Failed != 0 || res.Attempted < short.minOps {
				t.Fatalf("%d of %d untraced and %d of %d traced ops failed: %s%s",
					res.Failed, res.Attempted, traced.Failed, traced.Attempted, res.FirstErr, traced.FirstErr)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %g: end-to-end metrics are never 0", d.Name, v)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(res.PerLayer), len(perLayer))
			}
			for name, v := range res.PerLayer {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %g", name, v)
				}
			}
			if len(rec.spans) == 0 {
				t.Error("the traced pass recorded no span")
			}

			var out bytes.Buffer
			(&report{Seed: 1}).print(&out, res)
			for _, line := range strings.Split(out.String(), "\n")[2:] {
				if f := strings.Fields(line); len(f) >= 3 && (!nameRE.MatchString(f[0]) || !listed[f[0]]) {
					t.Errorf("printed metric %q is not one BENCHMARK.json lists", f[0])
				}
			}
			var obj struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(res, endToEnd, res.EndToEnd)), &obj); err != nil {
				t.Fatal(err)
			}
			if obj.Correct == nil || !*obj.Correct || obj.Attempted == nil || *obj.Attempted < 1 ||
				obj.Failed == nil || *obj.Failed != 0 || len(obj.Metrics) != len(endToEnd) {
				t.Errorf("contract line %s", contractLine(res, endToEnd, res.EndToEnd))
			}

			first, err := w.setup(e)
			if err != nil {
				t.Fatal(err)
			}
			second, err := w.setup(testEnv(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			if first.inputs == second.inputs {
				t.Error("seeds 1 and 2 generated the same inputs")
			}
			if p := runOps(ctx, second, 0, 2, 0, nil, nil); p.failed != 0 {
				t.Errorf("seed 2: %d of %d ops failed: %v", p.failed, p.attempted(), p.firstErr)
			}
			second.corrupt()
			p := runOps(ctx, second, 2, 2, 0, nil, nil)
			if p.failed != p.attempted() || sum(p.work) != 0 {
				t.Errorf("with a wrong oracle %d of %d ops failed and %g work was counted; want all and none",
					p.failed, p.attempted(), sum(p.work))
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"-sets", "-1"}, {"stray"},
	} {
		if err := run(append(args, "-dir", t.TempDir()), &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected invocations printed %q", out.String())
	}
}
