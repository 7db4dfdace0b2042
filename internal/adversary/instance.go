package adversary

import (
	"errors"
	"fmt"

	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// FaultSet returns an engine Config's fault set over g's nodes, normalizing
// the zero-value Set (no faults configured) to the empty set.
func FaultSet(g *graph.Graph, faulty nodeset.Set) nodeset.Set {
	if faulty.Cap() == 0 {
		return nodeset.New(g.N())
	}
	return faulty
}

// Instance is the problem instance the three runtimes' Configs (sim, async,
// node) have in common; each Validate checks it here and keeps only the
// checks on its own fields.
type Instance struct {
	G         *graph.Graph
	F         int
	Faulty    nodeset.Set
	Initial   []float64
	Rule      core.UpdateRule
	Adversary Strategy
	MaxRounds int
}

// Validate returns a descriptive error for the first problem found.
// quorumOf maps a node's in-degree to the number of values the engine hands
// its rule per update: the in-degree itself in the synchronous models,
// quorum.Count in the Section 7 ones.
func (in Instance) Validate(quorumOf func(inDegree int) int) error {
	if in.G == nil {
		return errors.New("nil graph")
	}
	n := in.G.N()
	if len(in.Initial) != n {
		return fmt.Errorf("len(Initial) = %d, want n = %d", len(in.Initial), n)
	}
	if in.Rule == nil {
		return errors.New("nil update rule")
	}
	if in.F < 0 {
		return fmt.Errorf("negative F %d", in.F)
	}
	if in.MaxRounds < 1 {
		return fmt.Errorf("MaxRounds must be ≥ 1, got %d", in.MaxRounds)
	}
	if in.Faulty.Cap() != 0 && in.Faulty.Cap() != n {
		return fmt.Errorf("Faulty set capacity %d does not match n = %d", in.Faulty.Cap(), n)
	}
	faulty := FaultSet(in.G, in.Faulty)
	if !faulty.Empty() && in.Adversary == nil {
		return errors.New("faulty nodes configured but Adversary is nil (use adversary.Conforming for correct behavior)")
	}
	if faulty.Count() == n {
		return errors.New("all nodes faulty — no fault-free node to track")
	}
	var err error
	faulty.Complement().ForEach(func(i int) bool {
		d := in.G.InDegree(i)
		q := quorumOf(d)
		if e := in.Rule.Validate(q, in.F); e != nil {
			err = fmt.Errorf("node %d (in-degree %d, %d values per update): %w", i, d, q, e)
			return false
		}
		return true
	})
	return err
}
