package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"iabc"
)

// cmdCluster runs the live actor cluster — goroutine-per-node Section 7
// iteration over an in-process transport, optionally behind the seeded
// chaos layer — and reports the stop verdict plus the robustness counters.
func cmdCluster(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	in := instanceFlags(fs, 1, 1000, 1e-6, map[string]string{
		"rounds": "maximum rounds per node",
		"seed":   "seed for initial values, randomized adversaries, and chaos",
	})
	drop := fs.Float64("drop", 0, "chaos: per-message drop probability")
	dup := fs.Float64("dup", 0, "chaos: per-message duplication probability")
	delay := fs.Duration("delay", 0, "chaos: max per-message reordering delay")
	resend := fs.Duration("resend", 0, "tick interval: a node that made no progress since the last tick asks for the values it lacks (0 = default)")
	stall := fs.Duration("stall", 5*time.Second, "liveness cutoff: give up after this long without progress (0 = none)")
	timeout := fs.Duration("timeout", 0, "cancel the whole run after this long (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.resolve(stdin); err != nil {
		return err
	}
	opts := append(in.options(),
		iabc.WithResendEvery(*resend),
		iabc.WithStallAfter(*stall),
	)
	chaotic := *drop > 0 || *dup > 0 || *delay > 0
	if chaotic {
		opts = append(opts, iabc.WithChaos(iabc.ChaosConfig{
			Seed: in.seed, Drop: *drop, Dup: *dup, MaxDelay: *delay,
		}))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := iabc.Cluster(ctx, in.g, opts...)
	if err != nil {
		return err
	}
	faulty := iabc.SetOf(in.g.N(), in.faulty...)
	fmt.Fprintf(stdout, "graph: %s  f=%d  faulty=%s  adversary=%s  chaos=%v\n",
		in.g, in.f, faulty, in.strat.Name(), chaotic)
	fmt.Fprintf(stdout, "verdict: %s  min round: %d  final range: %.3e  elapsed: %s\n",
		clusterVerdict(res), res.MinRound(faulty.Complement()), res.FinalRange, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "traffic: %d deliveries, %d updates, %d resends, %d abandoned sends, %d queue drops, %d restarts\n",
		res.Deliveries, res.Updates, res.Resends, res.Abandoned, res.OutDropped, res.Restarts)
	return nil
}
