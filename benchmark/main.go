// Command benchmark is the repository's performance ruler: eight workloads
// over every user path of the iabc facade, five end-to-end metrics per
// workload from an untraced pass, and per-layer attribution from a separate
// traced pass. It claims no gain; BENCHMARK.json names the metrics later
// changes are held to. See README.md.
//
//	go run ./benchmark -seed 1                      # everything, human-readable
//	go run ./benchmark -workload cluster_tcp,async_run -out result.json
//	go run ./benchmark -sets 5                      # repeatability of the end-to-end metrics
//	go run ./benchmark -workload sweep_plane -seed 3 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, one
// pass, and a single JSON object as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// scale is how much work a run does; tests shrink it.
type scale struct {
	seconds      float64
	warmups      int
	minOps       int
	setupRepeats int
}

// result is one workload's numbers from one run.
type result struct {
	Name      string             `json:"name"`
	WorkUnit  string             `json:"work_unit"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	CalibMs   float64            `json:"host_calib_ms"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func (r *result) tally(passes ...*pass) {
	for _, p := range passes {
		r.Attempted += p.attempted()
		r.Failed += p.failed
		if r.FirstErr == "" && p.firstErr != nil {
			r.FirstErr = p.firstErr.Error()
		}
	}
}

// untracedPass sets the workload up (several times, for a steady setup_s) and
// measures it with tracing off: the only source of end-to-end numbers.
func untracedPass(ctx context.Context, w *workloadDef, e *env, sc scale) (*result, error) {
	res := &result{Name: w.name, WorkUnit: w.unit, CalibMs: float64(calibrate()) / 1e6}
	var inst *instance
	var setups []time.Duration
	for i := 0; i < sc.setupRepeats; i++ {
		in, d, err := setUp(ctx, w, e, sc)
		if err != nil {
			return nil, err
		}
		inst, setups = in, append(setups, d)
	}
	p := runOps(ctx, inst, sc.warmups, sc.minOps, time.Duration(sc.seconds*float64(time.Second)), nil, nil)
	res.tally(p)
	res.EndToEnd = endToEndMetrics(p, setups)
	return res, nil
}

// contractLine is the object the driver reads from the last line of stdout.
func contractLine(res *result, defs []metricDef, values map[string]float64) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{values[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all eight)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of each measured pass, per workload")
	trace := fs.Int("trace", -1, "0: untraced pass only, 1: traced pass only; with one workload the result is also printed as one JSON line (default: both passes)")
	sets := fs.Int("sets", 0, "run the untraced passes this many times and report the spread of every end-to-end metric against its bound")
	out := fs.String("out", "", "write the result as JSON to this path")
	dir := fs.String("dir", filepath.Join("benchmark", "out"), "directory for the trace file and the state dirs of distrib_scan")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || *sets < 0 {
		return fmt.Errorf("need -seconds > 0, -trace in {0,1} and -sets >= 0")
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w := workloadByName(n)
			if w == nil {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, *w)
		}
	}

	// The load discipline: one client goroutine, and a processor count that
	// is fixed, recorded, and used by every "all cores" option.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	e := &env{seed: *seed, procs: procs, dir: *dir}
	sc := scale{seconds: *seconds, warmups: warmupOps, minOps: minTimedOps, setupRepeats: setupRepeats}
	rep := &report{Host: readHost(procs), Seed: *seed, Seconds: *seconds}
	ctx := context.Background()

	if *sets > 0 {
		return runSets(ctx, stdout, selected, e, sc, *sets)
	}

	rec := newRecorder()
	for i := range selected {
		w := &selected[i]
		var res *result
		if *trace != 1 {
			r, err := untracedPass(ctx, w, e, sc)
			if err != nil {
				return err
			}
			res = r
		}
		if *trace != 0 {
			r, err := tracedPass(ctx, w, e, sc, rec)
			if err != nil {
				return err
			}
			if res == nil {
				res = r
			} else {
				res.PerLayer = r.PerLayer
				res.Attempted, res.Failed = res.Attempted+r.Attempted, res.Failed+r.Failed
				if res.FirstErr == "" {
					res.FirstErr = r.FirstErr
				}
			}
		}
		rep.Workloads = append(rep.Workloads, res)
		rep.print(stdout, res)
	}
	if *trace != 0 {
		path := filepath.Join(*dir, fmt.Sprintf("trace-%d.json", *seed))
		if err := rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(rec.spans), path)
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *trace >= 0 && len(rep.Workloads) == 1 {
		res := rep.Workloads[0]
		if *trace == 0 {
			fmt.Fprintln(stdout, contractLine(res, endToEnd, res.EndToEnd))
		} else {
			fmt.Fprintln(stdout, contractLine(res, perLayer, res.PerLayer))
		}
		return nil
	}
	for _, res := range rep.Workloads {
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed their check", res.Name, res.Failed, res.Attempted)
		}
	}
	return nil
}
