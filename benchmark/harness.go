package main

// The measuring loop: one closed-loop client issuing ops back to back, plus
// the statistics helpers and the host record.

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// warmupOps are discarded before the first timed op.
	warmupOps = 5
	// minTimedOps keeps op_p90_ms meaningful: at least ten samples beyond it.
	minTimedOps = 100
	// setupRepeats is how many times a run sets the workload up; setup_s is
	// the median, so one slow set-up does not read as a regression.
	setupRepeats = 3
)

// pass is the raw record of one run of consecutive ops.
type pass struct {
	durNs      []int64
	work       []float64 // per op, 0 when the op failed
	failed     int
	firstErr   error
	allocBytes uint64
}

func (p *pass) attempted() int { return len(p.durNs) }

// opDone is what the per-layer pass learns about one finished op.
type opDone struct {
	index               int
	start, end          time.Time
	seams               *seams
	res                 opResult
	mallocs, allocBytes uint64
}

// runOps issues ops first, first+1, … back to back until both the time budget
// and the op floor are met. pick, when non-nil, chooses the n-th op's seams
// and worker count (nil seams and 0 workers are the plain user call); done,
// when non-nil, receives every finished op with its own allocation counts.
// The untraced pass passes neither, and then nothing runs between two ops.
func runOps(ctx context.Context, inst *instance, first, minOps int, budget time.Duration,
	pick func(n int) (*seams, int), done func(n int, o opDone)) *pass {
	p := &pass{}
	var before, after, opBefore, opAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for n := 0; n < minOps || time.Since(begin) < budget; n++ {
		var s *seams
		workers := 0
		if pick != nil {
			s, workers = pick(n)
		}
		if done != nil {
			runtime.ReadMemStats(&opBefore)
		}
		start := time.Now()
		r := inst.op(ctx, first+n, s, workers)
		end := time.Now()
		p.durNs = append(p.durNs, int64(end.Sub(start)))
		if r.err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d: %w", first+n, r.err)
			}
			r.work = 0
		}
		p.work = append(p.work, r.work)
		if done != nil {
			runtime.ReadMemStats(&opAfter)
			done(n, opDone{first + n, start, end, s, r, opAfter.Mallocs - opBefore.Mallocs, opAfter.TotalAlloc - opBefore.TotalAlloc})
		}
	}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	return p
}

// setUp builds the workload and runs the discarded warm-up ops; the elapsed
// time is everything a user waits for before the first timed op.
func setUp(ctx context.Context, w *workloadDef, e *env, sc scale) (*instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < sc.warmups; i++ {
		if r := inst.op(ctx, i, nil, 0); r.err != nil {
			return nil, 0, fmt.Errorf("%s: warm-up op %d: %w", w.name, i, r.err)
		}
	}
	return inst, time.Since(start), nil
}

// —— statistics ——

// percentile returns the q-quantile (0 ≤ q ≤ 1) of v by linear interpolation
// between order statistics. v need not be sorted; it is not modified.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func toFloat(v []int64, scale float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x) * scale
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// endToEndMetrics computes the user-visible metrics of an untraced pass.
// The timing figures are means over the whole pass, not medians: on the
// parallel workloads an op is fast or slow by which worker drew the long
// scenario, and the median of such a mix flips between the two modes from
// run to run while the mean moves with the mix (README, "Bounds").
func endToEndMetrics(p *pass, setups []time.Duration) map[string]float64 {
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	totalNs := sum(toFloat(p.durNs, 1))
	return map[string]float64{
		"setup_s":         median(setupS),
		"op_mean_ms":      totalNs / 1e6 / float64(p.attempted()),
		"work_per_s":      sum(p.work) / (totalNs / 1e9),
		"alloc_mb_per_op": float64(p.allocBytes) / 1e6 / float64(p.attempted()),
	}
}

// —— host ——

// hostRecord identifies the machine and build a set of numbers came from.
type hostRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readHost(procs int) hostRecord {
	h := hostRecord{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: procs, Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		// `go run` does not stamp the build; ask git when there is one.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed pure-Go loop: insertion sorts of small pseudo-random
// arrays, several independent integer chains, all in the first-level cache.
// It is read beside every number to tell a slower host from a slower program.
// The loop is deliberately dense in instructions and branches: on a shared
// host that is the kind of code a busy neighbour slows, while a loop that
// waits on one dependency chain does not notice.
func calibrate() time.Duration {
	start := time.Now()
	var buf [16]uint64
	x, h1, h2 := uint64(88172645463325252), uint64(1469598103934665603), uint64(7)
	for rep := 0; rep < 60000; rep++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = x
		}
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		h1 = (h1 ^ buf[3]) * 1099511628211
		h2 += buf[12]>>3 + uint64(rep)
	}
	calibSink = h1 ^ h2
	return time.Since(start)
}
