package condition_test

import (
	"context"
	"fmt"
	"log"

	"iabc/internal/condition"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// ExampleCheck decides the paper's Section 6.3 counterexample: the chord
// network with n = 7, f = 2 meets both corollaries (n > 3f, in-degree
// 2f+1 = 5) yet fails the tight condition.
func ExampleCheck() {
	g, err := topology.Chord(7, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("corollary screens:", len(condition.QuickScreen(g, 2)))
	res, err := condition.Check(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("satisfied:", res.Satisfied)
	fmt.Println("witness verifies:", res.Witness.Verify(g, 2, condition.SyncThreshold(2)) == nil)
	// Output:
	// corollary screens: 0
	// satisfied: false
	// witness verifies: true
}

// ExampleMaxF audits how many Byzantine nodes a topology tolerates.
func ExampleMaxF() {
	core, err := topology.CoreNetwork(7, 2)
	if err != nil {
		log.Fatal(err)
	}
	cube, err := topology.Hypercube(3)
	if err != nil {
		log.Fatal(err)
	}
	fc, err := condition.MaxF(core)
	if err != nil {
		log.Fatal(err)
	}
	fh, err := condition.MaxF(cube)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("core network(7,2):", fc)
	fmt.Println("3-cube:", fh)
	// Output:
	// core network(7,2): 2
	// 3-cube: 0
}

// ExampleMaxFScan shows the checker-work account behind a tolerance
// audit: the degree lower bound prunes most of the candidate space on a core
// network, and the pruning never exceeds the candidates accounted for.
func ExampleMaxFScan() {
	g, err := topology.CoreNetwork(10, 3)
	if err != nil {
		log.Fatal(err)
	}
	best, stats, err := condition.MaxFScan(context.Background(), g, condition.MaxFOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("maxf:", best)
	fmt.Println("pruning fired:", stats.CandidatesPruned > 0)
	fmt.Println("account consistent:", stats.CandidatesPruned <= stats.CandidatesExamined)
	// Output:
	// maxf: 3
	// pruning fired: true
	// account consistent: true
}

// ExamplePropagates runs Definition 3 on a directed cycle: a single node
// propagates to the rest one step at a time.
func ExamplePropagates() {
	g, err := topology.DirectedCycle(5)
	if err != nil {
		log.Fatal(err)
	}
	a := nodeset.FromMembers(5, 0)
	p, err := condition.Propagates(g, a, a.Complement(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("propagates:", p.OK, "in", p.Steps, "steps")
	// Output:
	// propagates: true in 4 steps
}

// ExampleRepair fixes the 3-cube so it tolerates one Byzantine node.
func ExampleRepair() {
	g, err := topology.Hypercube(3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := condition.Repair(g, 1, 64)
	if err != nil {
		log.Fatal(err)
	}
	after, err := condition.Check(res.Repaired, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("edges added:", len(res.Added))
	fmt.Println("now satisfies:", after.Satisfied)
	// Output:
	// edges added: 8
	// now satisfies: true
}
