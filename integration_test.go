package iabc_test

// End-to-end integration: the full designer's pipeline across modules —
// generate a topology, audit it, repair it when it falls short, simulate
// Algorithm 1 under attack on the repaired network, and verify the run
// against the paper's analysis machinery. Each stage consumes the previous
// stage's real output; nothing is mocked.

import (
	"context"
	"math/rand"
	"testing"

	"iabc/internal/adversary"
	"iabc/internal/analysis"
	"iabc/internal/async"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/topology"
	"iabc/internal/workload"
)

func TestPipelineRepairThenConverge(t *testing.T) {
	// 1. A topology that audits below target: the 3-cube tolerates f = 0.
	g, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	maxF, err := condition.MaxF(g)
	if err != nil {
		t.Fatal(err)
	}
	if maxF != 0 {
		t.Fatalf("3-cube MaxF = %d, want 0", maxF)
	}

	// 2. Repair it to tolerate f = 1.
	rep, err := condition.Repair(g, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := condition.CheckScan(context.Background(), rep.Repaired, 1, condition.SyncThreshold(1), condition.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Satisfied {
		t.Fatal("repaired cube fails the exact check")
	}

	// 3. Simulate on the repaired graph with a Byzantine node running the
	// sharpest in-range attack, on the worst-case bimodal inputs.
	n := rep.Repaired.N()
	faulty := nodeset.FromMembers(n, 5)
	tr, err := sim.Sequential{}.Run(sim.Config{
		G: rep.Repaired, F: 1, Faulty: faulty,
		Initial:   workload.Bimodal(n, 0, 1),
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Insider{High: true},
		MaxRounds: 5000, Epsilon: 1e-7, RecordStates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Converged {
		t.Fatalf("repaired cube did not converge; range %v", tr.FinalRange())
	}
	if _, bad := tr.ValidityViolation(1e-9); bad {
		t.Fatal("validity violated on repaired graph")
	}

	// 4. The analysis machinery must accept the run: every Theorem 3 phase
	// within the Lemma 5 bound, and the empirical rate strictly below 1.
	phases, err := analysis.PhaseTrace(rep.Repaired, 1, tr, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) == 0 {
		t.Fatal("no phases extracted")
	}
	for _, p := range phases {
		if !p.Within {
			t.Errorf("phase violates Lemma 5: %v", p)
		}
	}
	if rate := analysis.EmpiricalRate(tr); rate <= 0 || rate >= 1 {
		t.Errorf("empirical rate %v not in (0,1)", rate)
	}
}

func TestPipelineSyncAsyncAgreementValues(t *testing.T) {
	// The same network and inputs through both engines: both must land
	// inside the honest hull, independently of scheduling model.
	const n, f = 7, 1
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.Gaussian(n, 50, 10, rand.New(rand.NewSource(3)))
	faulty := nodeset.FromMembers(n, 0)
	lo, hi := core.RangeOf(inputs[1:]) // honest hull (node 0 is faulty)

	syncTr, err := sim.Sequential{}.Run(sim.Config{
		G: g, F: f, Faulty: faulty, Initial: inputs,
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Extremes{Amplitude: 1000},
		MaxRounds: 2000, Epsilon: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	asyncTr, err := async.Run(context.Background(), async.Config{
		G: g, F: f, Faulty: faulty, Initial: inputs,
		Rule:      core.TrimmedMean{},
		Adversary: adversary.Extremes{Amplitude: 1000},
		Delays:    &async.Uniform{B: 2, Rng: rand.New(rand.NewSource(4))},
		MaxRounds: 2000, Epsilon: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !syncTr.Converged || !asyncTr.Converged {
		t.Fatalf("convergence: sync=%v async=%v", syncTr.Converged, asyncTr.Converged)
	}
	for i := 1; i < n; i++ {
		if v := syncTr.Final[i]; v < lo-1e-6 || v > hi+1e-6 {
			t.Errorf("sync node %d final %v outside honest hull [%v,%v]", i, v, lo, hi)
		}
		if v := asyncTr.Final[i]; v < lo-1e-6 || v > hi+1e-6 {
			t.Errorf("async node %d final %v outside honest hull [%v,%v]", i, v, lo, hi)
		}
	}
}

func TestPipelineWitnessRoundTrip(t *testing.T) {
	// A witness found by the checker must (a) verify, (b) power the
	// Theorem 1 attack into a live freeze, and (c) be neutralized by the
	// repair it suggests.
	g, err := topology.Chord(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := condition.Check(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if chk.Satisfied {
		t.Skip("chord(9,2) unexpectedly satisfied — sweep covered elsewhere")
	}
	w := chk.Witness
	if err := w.Verify(g, 2, condition.SyncThreshold(2)); err != nil {
		t.Fatal(err)
	}

	initial, err := workload.BimodalSets(9, w.L.Members(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// C nodes mid-range.
	w.C.ForEach(func(i int) bool {
		initial[i] = 0.5
		return true
	})
	tr, err := sim.Sequential{}.Run(sim.Config{
		G: g, F: 2, Faulty: w.F.Clone(), Initial: initial,
		Rule: core.TrimmedMean{},
		Adversary: adversary.PartitionAttack{
			L: w.L, R: w.R, Low: 0, High: 1, Eps: 1,
		},
		MaxRounds: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.FinalRange() != 1 {
		t.Fatalf("attack failed to hold the range: %v", tr.FinalRange())
	}

	rep, err := condition.Repair(g, 2, 81)
	if err != nil {
		t.Fatal(err)
	}
	after, err := condition.Check(rep.Repaired, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Satisfied {
		t.Fatal("repair did not fix chord(9,2)")
	}
}
