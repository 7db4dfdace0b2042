// Package cli implements the iabc command. It is a consumer of the public
// iabc facade — the same API external programs use — plus the internal
// experiment harness; it does not reach into internal/sim or
// internal/condition directly (enforced by TestFacadeOnlyConsumers at the
// repository root).
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"iabc"
	"iabc/internal/experiments"
)

const usage = `iabc — iterative approximate Byzantine consensus (Vaidya, Tseng, Liang; PODC 2012)

Commands:
  check        decide the Theorem 1 condition exactly (add -async for §7)
  maxf         largest f the topology tolerates
  run          simulate Algorithm 1 under a Byzantine adversary
  cluster      run the live actor cluster, optionally under network chaos
  serve        run this process's nodes of a cross-process TCP cluster
  coordinate   run a maxf scan served to distributed workers as leased jobs
  work         join a coordinator and process its jobs until it finishes
  repair       add edges until the topology satisfies the condition
  sweep        family sweep (rounds-to-ε vs n) as CSV
  topo         emit the topology (edge list or DOT)
  experiments  regenerate every paper experiment table (E1–E15)
  help         this text

Run 'iabc <command> -h' for command flags. Topology specs:
  complete:<n> core:<n>,<f> hypercube:<d> chord:<n>,<f> ring:<n> cycle:<n>
  wheel:<n> star:<n> grid:<r>,<c> torus:<r>,<c> random:<n>,<p>,<seed>
  file:<path>  -  (stdin edge list)
`

// runExperiments is what `iabc experiments` runs; a test substitutes a table
// with a refuted row to pin the exit status.
var runExperiments = experiments.RunAll

// Main dispatches the CLI and returns the process exit code.
func Main(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "check":
		err = cmdCheck(rest, stdin, stdout)
	case "maxf":
		err = cmdMaxF(rest, stdin, stdout)
	case "run":
		err = cmdRun(rest, stdin, stdout)
	case "cluster":
		err = cmdCluster(rest, stdin, stdout)
	case "serve":
		err = cmdServe(rest, stdin, stdout)
	case "coordinate":
		err = cmdCoordinate(rest, stdin, stdout)
	case "work":
		err = cmdWork(rest, stdout)
	case "repair":
		err = cmdRepair(rest, stdin, stdout)
	case "sweep":
		err = cmdSweep(rest, stdout)
	case "topo":
		err = cmdTopo(rest, stdin, stdout)
	case "experiments":
		err = runExperiments(context.Background(), stdout)
	case "help", "-h", "--help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "iabc: unknown command %q\n\n%s", cmd, usage)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "iabc %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

func cmdCheck(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	topoSpec := fs.String("topo", "", "topology spec (required)")
	f := fs.Int("f", 1, "fault-tolerance parameter")
	asyncMode := fs.Bool("async", false, "use the §7 asynchronous condition (threshold 2f+1)")
	stateDir := fs.String("state-dir", "", "checkpoint/resume directory: an interrupted check resumes here, a repeated one hits the verdict cache")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := ParseTopo(*topoSpec, stdin)
	if err != nil {
		return err
	}
	screen := iabc.QuickScreen(g, *f)
	var opts []iabc.Option
	if *asyncMode {
		screen = iabc.QuickScreenAsync(g, *f)
		opts = append(opts, iabc.WithAsyncCondition())
	}
	if *stateDir != "" {
		opts = append(opts, iabc.WithStateDir(*stateDir))
	}
	for _, v := range screen {
		fmt.Fprintf(stdout, "screen: %s\n", v)
	}
	res, err := iabc.Check(context.Background(), g, *f, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %s  f=%d  async=%v\n", g, *f, *asyncMode)
	if res.Satisfied {
		fmt.Fprintf(stdout, "condition: SATISFIED — iterative approximate consensus is possible\n")
	} else {
		fmt.Fprintf(stdout, "condition: VIOLATED — witness %s\n", res.Witness)
	}
	fmt.Fprintf(stdout, "work: %d fault sets, %d candidate sets (%d pruned by degree bound, %d memo hits)\n",
		res.FaultSetsExamined, res.CandidatesExamined, res.CandidatesPruned, res.MemoHits)
	if res.CandidatesExamined > 0 {
		fmt.Fprintf(stdout, "pruned: %.1f%% of the candidate space excluded by the degree bound\n",
			100*float64(res.CandidatesPruned)/float64(res.CandidatesExamined))
	}
	// Resume/cache provenance stays off the verdict and work lines, so those
	// diff byte-identical between interrupted-and-resumed and uninterrupted
	// runs (the CI resume gate relies on this).
	if res.CacheHit {
		fmt.Fprintln(stdout, "state: verdict served from cache (no enumeration)")
	} else if res.FaultSetsResumed > 0 {
		fmt.Fprintf(stdout, "state: resumed past %d checkpointed fault sets\n", res.FaultSetsResumed)
	}
	return nil
}

func cmdMaxF(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("maxf", flag.ContinueOnError)
	topoSpec := fs.String("topo", "", "topology spec (required)")
	stateDir := fs.String("state-dir", "", "checkpoint/resume directory: an interrupted scan resumes here, a repeated one hits the verdict cache")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := ParseTopo(*topoSpec, stdin)
	if err != nil {
		return err
	}
	var opts []iabc.Option
	if *stateDir != "" {
		opts = append(opts, iabc.WithStateDir(*stateDir))
	}
	maxF, stats, err := iabc.MaxFWithStats(context.Background(), g, opts...)
	if err != nil {
		return err
	}
	printMaxFReport(stdout, g, maxF, stats)
	return nil
}

// printMaxFReport prints the maxf result lines. cmdMaxF and cmdCoordinate
// share it so a distributed scan's maxf/work/state lines diff byte-identical
// against the single-process run (the CI distributed gate relies on this).
func printMaxFReport(stdout io.Writer, g *iabc.Graph, maxF int, stats iabc.MaxFStats) {
	fmt.Fprintf(stdout, "graph: %s\n", g)
	switch {
	case maxF < 0:
		fmt.Fprintln(stdout, "maxf: none — even f=0 fails (multiple source components)")
	default:
		fmt.Fprintf(stdout, "maxf: %d\n", maxF)
		if alpha, err := iabc.Alpha(g, maxF); err == nil {
			fmt.Fprintf(stdout, "alpha at maxf: %.6f\n", alpha)
		}
	}
	fmt.Fprintf(stdout, "work: %d checks, %d fault sets, %d candidate sets (%d pruned, %d memo hits)\n",
		stats.ChecksRun, stats.FaultSetsExamined, stats.CandidatesExamined,
		stats.CandidatesPruned, stats.MemoHits)
	// Provenance on its own line — the maxf/work lines diff byte-identical
	// between resumed and uninterrupted runs (the CI resume gate relies on
	// this).
	if stats.FaultSetsResumed > 0 || stats.CacheHits > 0 {
		fmt.Fprintf(stdout, "state: %d fault sets resumed, %d verdict cache hits\n",
			stats.FaultSetsResumed, stats.CacheHits)
	}
}

// engineByName resolves the -engine flag shared by run and sweep.
func engineByName(name string) (iabc.Engine, error) {
	switch name {
	case "sequential":
		return iabc.Sequential, nil
	case "matrix":
		return iabc.Matrix, nil
	default:
		return 0, fmt.Errorf("cli: unknown engine %q (sequential|matrix)", name)
	}
}

func cmdRun(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	in := instanceFlags(fs, 1, 10000, 1e-6, nil)
	engineName := fs.String("engine", "sequential", "sequential|matrix")
	every := fs.Int("trace-every", 0, "print U, µ every k rounds (0 = summary only)")
	csvPath := fs.String("csv", "", "write the round-by-round trace as CSV to this file")
	finals := fs.Bool("finals", false, "print per-node finals as hex floats — the bit-exact oracle the multi-process gate diffs `iabc serve` output against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.resolve(stdin); err != nil {
		return err
	}
	g, n, ids, strat := in.g, in.g.N(), in.faulty, in.strat
	engine, err := engineByName(*engineName)
	if err != nil {
		return err
	}
	opts := append(in.options(), iabc.WithEngine(engine))
	if *csvPath != "" {
		opts = append(opts, iabc.WithRecordStates())
	}
	out, err := iabc.Simulate(context.Background(), g, opts...)
	if err != nil {
		return err
	}
	tr := out.Trace
	if *csvPath != "" {
		file, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("cli: %w", err)
		}
		if err := tr.WriteCSV(file); err != nil {
			file.Close()
			return fmt.Errorf("cli: writing csv: %w", err)
		}
		if err := file.Close(); err != nil {
			return fmt.Errorf("cli: %w", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *csvPath)
	}
	fmt.Fprintf(stdout, "graph: %s  f=%d  faulty=%s  adversary=%s  engine=%s\n",
		g, in.f, iabc.SetOf(n, ids...), strat.Name(), engine)
	if *every > 0 {
		for r := 0; r <= tr.Rounds; r += *every {
			fmt.Fprintf(stdout, "round %6d  U=%.8f  µ=%.8f  range=%.3e\n",
				r, tr.U[r], tr.Mu[r], tr.Range(r))
		}
	}
	if *finals {
		faultFree := iabc.SetOf(n, ids...).Complement()
		faultFree.ForEach(func(i int) bool {
			fmt.Fprintf(stdout, "final %d %s\n", i, strconv.FormatFloat(out.Final[i], 'x', -1, 64))
			return true
		})
	}
	fmt.Fprintf(stdout, "rounds: %d  converged: %v  final range: %.3e\n",
		out.Rounds, out.Converged, out.FinalRange)
	if round, bad := tr.ValidityViolation(1e-9); bad {
		fmt.Fprintf(stdout, "VALIDITY VIOLATED at round %d\n", round)
	} else {
		fmt.Fprintln(stdout, "validity: held throughout")
	}
	return nil
}

func cmdTopo(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	topoSpec := fs.String("topo", "", "topology spec (required)")
	format := fs.String("format", "edgelist", "edgelist|dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := ParseTopo(*topoSpec, stdin)
	if err != nil {
		return err
	}
	switch *format {
	case "edgelist":
		return g.WriteEdgeList(stdout)
	case "dot":
		name := strings.ReplaceAll(*topoSpec, ":", "_")
		_, err := io.WriteString(stdout, g.DOT(name))
		return err
	default:
		return fmt.Errorf("cli: unknown format %q", *format)
	}
}
