package cli

import (
	"flag"
	"io"
	"math/rand"

	"iabc"
)

// instance is the problem-instance block run, cluster and serve share: the
// -topo/-f/-faulty/-adversary/-rounds/-eps/-seed flags and what they resolve
// to. The multi-process gate diffs `iabc serve` finals against `iabc run
// -finals` bit for bit, which is only sound while every command derives the
// graph, fault list, strategy and initial vector the same way — so they are
// derived here, once.
type instance struct {
	topo, faultyList, advName string
	f, rounds                 int
	eps                       float64
	seed                      int64

	// Filled by resolve.
	g       *iabc.Graph
	faulty  []int
	strat   iabc.Strategy
	initial []float64
}

// instanceFlags registers the block on fs. The -f, -rounds and -eps defaults
// differ by command on purpose (serve runs fault-free for a fixed 50 rounds);
// usage replaces a flag's help text where a command words it differently.
func instanceFlags(fs *flag.FlagSet, f, rounds int, eps float64, usage map[string]string) *instance {
	help := func(name, common string) string {
		if u, ok := usage[name]; ok {
			return u
		}
		return common
	}
	in := &instance{}
	fs.StringVar(&in.topo, "topo", "", help("topo", "topology spec (required)"))
	fs.IntVar(&in.f, "f", f, "fault-tolerance parameter")
	fs.StringVar(&in.faultyList, "faulty", "", help("faulty", "comma-separated faulty node IDs"))
	fs.StringVar(&in.advName, "adversary", "extremes", help("adversary", "byzantine strategy"))
	fs.IntVar(&in.rounds, "rounds", rounds, help("rounds", "maximum iterations"))
	fs.Float64Var(&in.eps, "eps", eps, help("eps", "convergence threshold on U−µ (0 = run all rounds)"))
	fs.Int64Var(&in.seed, "seed", 1, help("seed", "seed for randomized pieces"))
	return in
}

// resolve builds the graph, fault list, strategy and the seed's initial
// vector from the parsed flags. Bounds checks on the fault ids are the
// facade's job (WithFaulty).
func (in *instance) resolve(stdin io.Reader) error {
	var err error
	if in.g, err = ParseTopo(in.topo, stdin); err != nil {
		return err
	}
	if in.faulty, err = parseNodeList(in.faultyList); err != nil {
		return err
	}
	if in.strat, err = iabc.AdversaryByName(in.advName, in.seed); err != nil {
		return err
	}
	in.initial = make([]float64, in.g.N())
	rng := rand.New(rand.NewSource(in.seed))
	for i := range in.initial {
		in.initial[i] = rng.Float64() * 100
	}
	return nil
}

// options returns the facade options every command passes for the instance.
func (in *instance) options() []iabc.Option {
	return []iabc.Option{
		iabc.WithF(in.f),
		iabc.WithFaulty(in.faulty...),
		iabc.WithInitial(in.initial),
		iabc.WithAdversary(in.strat),
		iabc.WithMaxRounds(in.rounds),
		iabc.WithEpsilon(in.eps),
	}
}

// clusterVerdict names how a cluster run stopped.
func clusterVerdict(res *iabc.ClusterResult) string {
	switch {
	case res.Converged:
		return "converged"
	case res.Stalled:
		return "stalled"
	}
	return "max rounds"
}
