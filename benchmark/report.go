package main

// Printing: every metric by name with its unit, the JSON result, and the
// -sets repeatability table.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// report is the -out document: where the numbers came from, then the numbers.
// Claim is always null here — the benchmark reports readings; a later change
// that claims a gain says so in its own record.
type report struct {
	Host      hostRecord `json:"host"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Claim     *string    `json:"claim"`
	Workloads []*result  `json:"workloads"`
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes one workload's metrics, one per line: name, value, unit.
func (rep *report) print(w io.Writer, res *result) {
	h := rep.Host
	fmt.Fprintf(w, "workload %s  unit=%s seed=%d ops=%d failed=%d host.calib_ms=%.3f\n",
		res.Name, res.WorkUnit, rep.Seed, res.Attempted, res.Failed, res.CalibMs)
	fmt.Fprintf(w, "  host: %s, nproc=%d GOMAXPROCS=%d %s commit=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	if res.FirstErr != "" {
		fmt.Fprintf(w, "  FIRST FAILURE: %s\n", res.FirstErr)
	}
	if res.EndToEnd != nil {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "  %-34s %14.6g ratio (%d of %d ops)\n", "fail_share",
			ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	}
	if res.PerLayer != nil {
		for _, d := range perLayer {
			if workerSpeedups[d.Name] && runtime.NumCPU() == 1 {
				fmt.Fprintf(w, "  %-34s %14s %s\n", d.Name, "n/a", d.Unit)
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
	}
}

// runSets runs the untraced pass of every selected workload k times and
// prints, per end-to-end metric and workload, min, median, max and the
// relative spread (max − min) / median beside the metric's bound. It fails
// when a spread exceeds its bound: the numbers would not resolve a
// regression of that size.
func runSets(ctx context.Context, stdout io.Writer, selected []workloadDef, e *env, sc scale, k int) error {
	values := make(map[string][]float64) // workload/metric -> one value per set
	for set := 1; set <= k; set++ {
		for i := range selected {
			w := &selected[i]
			res, err := untracedPass(ctx, w, e, sc)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed, first: %s", w.name, res.Failed, res.Attempted, res.FirstErr)
			}
			for _, d := range endToEnd {
				key := w.name + "/" + d.Name
				values[key] = append(values[key], res.EndToEnd[d.Name])
			}
			fmt.Fprintf(stdout, "set %d/%d %s done (%d ops)\n", set, k, w.name, res.Attempted)
		}
	}
	fmt.Fprintf(stdout, "%-16s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	exceeded := 0
	for i := range selected {
		for _, d := range endToEnd {
			v := values[selected[i].name+"/"+d.Name]
			lo, mid, hi := percentile(v, 0), median(v), percentile(v, 1)
			spread := ratio(hi-lo, mid)
			mark := ""
			if spread > d.Bound {
				mark = "  > bound"
				exceeded++
			}
			fmt.Fprintf(stdout, "%-16s %-16s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n",
				selected[i].name, d.Name, lo, mid, hi, spread, d.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric × workload pairs spread wider than their bound over %d sets", exceeded, k)
	}
	return nil
}
