package sim

import "iabc/internal/graph"

// Concurrent runs one goroutine per node; values travel over dedicated
// per-edge channels of capacity one ("channel size is one or none"), and a
// coordinator enforces the synchronous round barrier. It produces traces
// bit-identical to Sequential — the conformance suite asserts this — while
// exercising the algorithm as genuine message passing.
//
// The machinery is ConcurrentPool: Run builds a pool for the config's graph,
// runs the config on it once, and closes it. Sweeps keep one pool per worker
// instead (newRunner), paying for the goroutines and channels once.
//
// The zero value is ready to use.
type Concurrent struct{}

var _ Engine = Concurrent{}

// Name implements Engine.
func (Concurrent) Name() string { return "concurrent" }

// Run implements Engine.
func (Concurrent) Run(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl := NewConcurrentPool(cfg.G)
	defer pl.Close()
	return pl.run(&cfg)
}

// newRunner implements the pooled-runner hook for the Concurrent engine.
func (Concurrent) newRunner(g *graph.Graph) ScenarioRunner { return NewConcurrentPool(g) }
