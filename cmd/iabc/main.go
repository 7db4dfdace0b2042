// Command iabc is the CLI for the iterative approximate Byzantine consensus
// library: check the Theorem 1 condition on a topology, search the maximum
// tolerable f, run simulations, emit topologies, and regenerate the paper's
// experiment tables.
//
// Usage:
//
//	iabc check      -topo <spec> -f <faults> [-async]
//	iabc maxf       -topo <spec>
//	iabc run        -topo <spec> -f <faults> [-faulty 0,1] [-adversary name]
//	                [-rounds N] [-eps E] [-engine sequential|matrix] [-finals]
//	iabc cluster    -topo <spec> [-drop P] [-dup P] [-delay D] [-stall D]
//	iabc serve      -topo <spec> -id <ids> -peers <file> [-rounds N] [-seed S]
//	                [-stall D] [-linger D]
//	iabc topo       -topo <spec> [-format edgelist|dot]
//	iabc experiments
//
// serve runs one process's share of a cross-process cluster over TCP: every
// process is started with the same -topo and -seed (they derive the same
// initial vector), its own -id list, and a shared peers file mapping each
// node id to host:port ("id host:port" lines, '#' comments). Finals print
// as hex floats so bit-identity with `iabc run -finals` is a text diff.
//
// Topology specs:
//
//	complete:<n>          core:<n>,<f>        hypercube:<d>
//	chord:<n>,<f>         ring:<n>            cycle:<n>
//	wheel:<n>             star:<n>            grid:<r>,<c>
//	torus:<r>,<c>         random:<n>,<p>,<seed>
//	file:<path>           (edge-list format: "n <order>" then "<from> <to>")
//	-                     (edge list on stdin)
package main

import (
	"os"

	"iabc/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
