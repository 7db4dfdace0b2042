// Package experiments reproduces, one table per artifact, every claim of the
// paper's technical sections: the Theorem 1 impossibility construction
// (Fig. 1), the corollaries, the Section 6 case studies (core network,
// hypercube/Fig. 3, chord), the Lemma 5/Theorem 3 convergence-rate bounds,
// the Section 7 asynchronous extension, and the ablations that justify the
// design (trimming vs. plain averaging).
//
// An experiment is a row of All(): an ID, a title, and a deterministic Run
// returning tables whose rows carry their cells plus an OK bit — whether the
// claim that row measures held. Every simulation and condition check inside
// a Run goes through the public iabc facade, so an experiment is an option
// list any runtime accepting those options can execute. `iabc experiments`
// prints RunAll and fails on the first refuted row; the committed
// testdata/experiments.golden pins the output byte for byte, and
// EXPERIMENTS.md records paper-claim vs. measured outcome per experiment.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"iabc"
)

// Experiment is one reproduced paper artifact.
type Experiment struct {
	// ID is the experiment's index in EXPERIMENTS.md ("E1" … "E15").
	ID string
	// Title names the paper artifact and the claim measured.
	Title string
	// Run executes the experiment. An error means it could not be carried
	// out; a refuted claim is a row with OK false.
	Run func(ctx context.Context) ([]Table, error)
}

// Table is a header over rows; a nil Header renders the rows as
// free-standing lines.
type Table struct {
	Header []string
	Rows   []Row
}

// Row is one measured line and whether the claim it carries held.
// Cross-row claims ("rounds non-decreasing in B") are decided against the
// previous row.
type Row struct {
	Cells []string
	OK    bool
}

// All lists every experiment in print order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 1 necessity (Fig. 1): partition attack freezes a violating graph", e1Theorem1Attack},
		{"E2", "Corollary 2: n > 3f is necessary (exhaustive n ≤ 3 at f=1, K_n boundary)", e2Corollary2},
		{"E3", "Corollary 3: in-degree ≥ 2f+1 is necessary (K_{3f+1} with node 0 pruned)", e3Corollary3},
		{"E4", "§6.2/Fig. 3: hypercubes fail Theorem 1 for f = 1 (dimension cut witness)", e4Hypercube},
		{"E5", "§6.1: core networks satisfy Theorem 1 and converge under attack", e5CoreNetwork},
		{"E6", "§6.3: chord networks — paper's three cases plus an (n, f) sweep", e6Chord},
		{"E7", "Lemma 5/Theorem 3: measured contraction vs. the (1 − αˡ/2) bound", e7ConvergenceRate},
		{"E8", "§7: asynchronous consensus (threshold 2f+1, n > 5f, in-degree ≥ 3f+1)", e8Async},
		{"E9", "ablation of Theorem 2: trimming is what buys validity", e9RuleAblation},
		{"E10", "cost of exactness: checker work growth and engine throughput", e10Scaling},
		{"E11", "§6.1 conjecture: is the core network edge-minimal at n = 3f+1? (computational)", e11Conjecture},
		{"E12", "density ablation: circulants n=16, f=1 — connectivity vs convergence speed", e12Density},
		{"E13", "connectivity is not sufficient: κ-based tolerance vs the tight condition", e13Connectivity},
		{"E14", "two roads to Theorem 1: insulated sets vs reduced graphs (cross-validation)", e14ReducedCrossCheck},
		{"E15", "§7 deferred extension: partial asynchrony (staleness ≤ B iterations)", e15Delayed},
	}
}

// RunAll executes every experiment in order and writes the tables to w. It
// stops after the first experiment with a refuted row, whose tables are
// still written, and returns an error naming that row.
func RunAll(ctx context.Context, w io.Writer) error { return Run(ctx, w, All()) }

// Run is RunAll over an explicit list.
func Run(ctx context.Context, w io.Writer, exps []Experiment) error {
	for _, e := range exps {
		tables, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		var out strings.Builder
		var refuted error
		i := 0
		for _, t := range tables {
			out.WriteString(table(t))
			for _, r := range t.Rows {
				i++
				if !r.OK && refuted == nil {
					refuted = fmt.Errorf("experiments: %s row %d failed: %s", e.ID, i, strings.Join(r.Cells, " | "))
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%s — %s\n%s\n", e.ID, e.Title, out.String()); err != nil {
			return err
		}
		if refuted != nil {
			return refuted
		}
	}
	return nil
}

// table renders t with aligned columns.
func table(t Table) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	if t.Header != nil {
		fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	}
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r.Cells, "\t"))
	}
	tw.Flush()
	return sb.String()
}

// row builds a Row from mixed cells: booleans render as yes/no, everything
// else through fmt.Sprint (format floats before passing them).
func row(ok bool, cells ...any) Row {
	r := Row{Cells: make([]string, len(cells)), OK: ok}
	for i, c := range cells {
		if b, isBool := c.(bool); isBool {
			c = yes(b)
		}
		r.Cells[i] = fmt.Sprint(c)
	}
	return r
}

// note is a free-standing line under an experiment's tables.
func note(ok bool, format string, args ...any) Table {
	return Table{Rows: []Row{{Cells: []string{fmt.Sprintf(format, args...)}, OK: ok}}}
}

// yes renders a boolean as a compact table cell.
func yes(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ramp returns the canonical initial condition 0, 1, ..., n-1: maximal
// disagreement with unit steps.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// firstFaulty marks {0, ..., k-1} faulty — shared by the experiments that
// place faults in the "hardest" spots (core members).
func firstFaulty(k int) iabc.Option {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	return iabc.WithFaulty(ids...)
}

// satisfied runs the exact synchronous Theorem 1 check and returns its
// verdict.
func satisfied(ctx context.Context, g *iabc.Graph, f int, opts ...iabc.Option) (bool, error) {
	res, err := iabc.Check(ctx, g, f, opts...)
	return res.Satisfied, err
}
