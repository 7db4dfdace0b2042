package cli

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"iabc"
	"iabc/internal/workload"
)

// cmdRepair implements `iabc repair`.
func cmdRepair(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	topoSpec := fs.String("topo", "", "topology spec (required)")
	f := fs.Int("f", 1, "fault-tolerance target")
	maxEdges := fs.Int("max-edges", 100, "edge-addition budget")
	emit := fs.Bool("emit", false, "print the repaired topology as an edge list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := ParseTopo(*topoSpec, stdin)
	if err != nil {
		return err
	}
	res, err := iabc.Repair(g, *f, *maxEdges)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %s  f=%d\n", g, *f)
	if len(res.Added) == 0 {
		fmt.Fprintln(stdout, "already satisfies the condition — no edges needed")
	} else {
		fmt.Fprintf(stdout, "repaired with %d added edge(s) in %d iteration(s):\n", len(res.Added), res.Iterations)
		for _, e := range res.Added {
			fmt.Fprintf(stdout, "  add %d -> %d\n", e[0], e[1])
		}
	}
	if *emit {
		return res.Repaired.WriteEdgeList(stdout)
	}
	return nil
}

// cmdSweep implements `iabc sweep`: for a topology family and a range of n,
// report condition verdict, α, and rounds-to-ε under a chosen adversary as
// CSV — the raw series behind convergence-vs-size figures.
//
// Every point runs through iabc.Sweep, one scenario per strategy: the
// -adversary alone, or each of -adversaries a,b,c, sharing the per-graph
// engine setup (pooled runners) across the batch; -engine selects which
// pooled engine runs the scenarios, -workers fans them across cores
// (0 = GOMAXPROCS), and -state-dir resumes completed scenarios. With
// -engine matrix, -batch K composes the second batching dimension: each
// scenario's recorded round programs are replayed over K perturbed initial
// vectors and the per-row scenario_final_range_max column reports the worst
// final range across them.
//
// Any failing scenario aborts the sweep with a non-zero exit and an error
// naming the scenario's index and name — the same contract on every
// engine, pinned by TestSweepNamesFailingScenario.
func cmdSweep(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	family := fs.String("family", "core", "core|chord|complete|circulant")
	f := fs.Int("f", 1, "fault-tolerance parameter")
	from := fs.Int("from", 0, "first n (default: smallest legal)")
	to := fs.Int("to", 12, "last n (inclusive)")
	eps := fs.Float64("eps", 1e-6, "convergence threshold")
	advName := fs.String("adversary", "extremes", "byzantine strategy")
	advList := fs.String("adversaries", "", "comma-separated strategies; each point is run under all of them via the batched scenario engine")
	rounds := fs.Int("rounds", 100000, "round cap per point")
	seed := fs.Int64("seed", 1, "seed for randomized pieces")
	engineName := fs.String("engine", "sequential", "sequential|matrix")
	batch := fs.Int("batch", 0, "matrix-replay initial vectors per scenario row (composes with -adversaries; requires -engine matrix)")
	workers := fs.Int("workers", 1, "parallel scenario workers per point (0 = GOMAXPROCS); scenarios run bit-identically at any worker count")
	stateDir := fs.String("state-dir", "", "checkpoint/resume directory: completed scenarios of an interrupted sweep are resumed, not re-simulated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 0 {
		return fmt.Errorf("cli: negative batch %d", *batch)
	}
	engineSet := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "engine" {
			engineSet = true
		}
	})
	if *batch > 0 {
		// -batch is the composed replay: it rides on the scenario sweep, so
		// it needs the matrix engine. Auto-select it when -engine is unset.
		if engineSet && *engineName != "matrix" {
			return fmt.Errorf("cli: -batch replays recorded matrix programs; drop -engine %s or use -engine matrix", *engineName)
		}
		*engineName = "matrix"
	}
	engine, err := engineByName(*engineName)
	if err != nil {
		return err
	}
	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}

	var build func(n int) (*iabc.Graph, error)
	switch *family {
	case "core":
		build = func(n int) (*iabc.Graph, error) { return iabc.CoreNetwork(n, *f) }
	case "chord":
		build = func(n int) (*iabc.Graph, error) { return iabc.Chord(n, *f) }
	case "complete":
		build = func(n int) (*iabc.Graph, error) { return iabc.Complete(n) }
	case "circulant":
		build = func(n int) (*iabc.Graph, error) {
			offs := make([]int, 2*(*f)+1)
			for i := range offs {
				offs[i] = i + 1
			}
			return iabc.Circulant(n, offs)
		}
	default:
		return fmt.Errorf("cli: unknown family %q (core|chord|complete|circulant)", *family)
	}
	if *from == 0 {
		*from = 3*(*f) + 1
	}
	if *from > *to {
		return fmt.Errorf("cli: empty range %d..%d", *from, *to)
	}

	advNames := []string{*advName}
	if *advList != "" {
		advNames = strings.Split(*advList, ",")
	}
	for i, name := range advNames {
		advNames[i] = strings.TrimSpace(name)
	}
	// scenarios resolves one fresh strategy per name. Each point gets its
	// own, seeded alike, so a randomized adversary's stream restarts at every
	// point: a point is a function of (seed, point) alone, and a sweep
	// resumed from -state-dir prints what an uninterrupted one does.
	scenarios := func() ([]iabc.Scenario, error) {
		scens := make([]iabc.Scenario, len(advNames))
		for i, name := range advNames {
			adv, err := iabc.AdversaryByName(name, *seed)
			if err != nil {
				return nil, err
			}
			scens[i] = iabc.Scenario{Name: name, Adversary: adv}
		}
		return scens, nil
	}
	if _, err := scenarios(); err != nil {
		return err
	}
	cw := csv.NewWriter(stdout)
	if err := cw.Write([]string{"family", "n", "f", "engine", "workers", "adversary", "satisfied", "rounds_to_eps", "converged", "scenario_final_range_max"}); err != nil {
		return err
	}
	// maxFinalRange is the worst fault-free final range across a batch of
	// replayed final-state vectors.
	maxFinalRange := func(finals [][]float64, faultFree iabc.Set) string {
		maxRange := 0.0
		for _, final := range finals {
			lo, hi := math.Inf(1), math.Inf(-1)
			faultFree.ForEach(func(i int) bool {
				lo = math.Min(lo, final[i])
				hi = math.Max(hi, final[i])
				return true
			})
			maxRange = math.Max(maxRange, hi-lo)
		}
		return strconv.FormatFloat(maxRange, 'e', 3, 64)
	}
	// perturbedInitials builds the -batch replay vectors for one point.
	perturbedInitials := func(n, k int) [][]float64 {
		extras := make([][]float64, k)
		rng := rand.New(rand.NewSource(*seed + int64(n)))
		for x := range extras {
			v := workload.Bimodal(n, 0, 1)
			for i := range v {
				v[i] += rng.Float64() * 0.5
			}
			extras[x] = v
		}
		return extras
	}
	ctx := context.Background()
	for n := *from; n <= *to; n++ {
		g, err := build(n)
		if err != nil {
			// Families have their own minimum sizes; skip points below.
			continue
		}
		chk, err := iabc.Check(ctx, g, *f, iabc.WithWorkers(0))
		if err != nil {
			return err
		}
		var traces []*iabc.Trace
		rowRanges := make([]string, len(advNames))
		rowWorkers := 1
		if chk.Satisfied {
			scens, err := scenarios()
			if err != nil {
				return err
			}
			// One pooled engine setup per worker per point, re-simulated
			// under every listed adversary (the one base adversary without
			// -adversaries); with -batch each scenario's recorded programs
			// also replay the perturbed initials.
			opts := []iabc.Option{
				iabc.WithEngine(engine),
				iabc.WithF(*f),
				iabc.WithFaulty(firstNodes(n, *f)...),
				iabc.WithInitial(workload.Bimodal(n, 0, 1)),
				iabc.WithAdversary(scens[0].Adversary),
				iabc.WithMaxRounds(*rounds),
				iabc.WithEpsilon(*eps),
				iabc.WithWorkers(*workers),
			}
			if *stateDir != "" {
				opts = append(opts, iabc.WithStateDir(*stateDir), iabc.WithSeed(*seed))
			}
			if *batch > 0 {
				opts = append(opts, iabc.WithExtras(perturbedInitials(n, *batch)))
			}
			res, err := iabc.Sweep(ctx, g, scens, opts...)
			if err != nil {
				return err
			}
			traces = res.Traces
			for i := range res.Finals {
				rowRanges[i] = maxFinalRange(res.Finals[i], traces[i].FaultFree)
			}
			// Report what actually ran: a sweep never spins up more
			// workers than there are scenarios.
			rowWorkers = min(effWorkers, len(scens))
		}
		for i, name := range advNames {
			row := []string{*family, strconv.Itoa(n), strconv.Itoa(*f),
				engine.String(), strconv.Itoa(rowWorkers), name,
				strconv.FormatBool(chk.Satisfied), "", "", rowRanges[i]}
			if i < len(traces) {
				row[7] = strconv.Itoa(traces[i].Rounds)
				row[8] = strconv.FormatBool(traces[i].Converged)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// firstNodes returns {0, ..., k-1} — the sweep places faults on the lowest
// IDs, which in core networks is inside the core (the hardest position).
func firstNodes(n, k int) []int {
	var ids []int
	for i := 0; i < k && i < n; i++ {
		ids = append(ids, i)
	}
	return ids
}
