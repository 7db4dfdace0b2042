package distrib

// Job specs: the JSON payloads of kindSpec frames. A spec is the full,
// self-contained identity of an enumeration — everything a worker needs to
// execute any index range of it. Specs are immutable once registered and
// cached per connection by specID, so the (potentially large) JSON crosses
// the wire once per worker.

import (
	"encoding/json"
	"fmt"
	"math"

	"iabc/internal/adversary"
	"iabc/internal/condition"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/sim"
	"iabc/internal/wire"
)

// scanSpec identifies one exact-check scan: any worker holding it can
// reproduce the canonical fault-set enumeration and scan any range.
type scanSpec struct {
	// Graph is the edge-list encoding (graph.EdgeListString), the format
	// with a parser on the receiving side.
	Graph     string `json:"graph"`
	F         int    `json:"f"`
	Threshold int    `json:"threshold"`
}

// sweepScenarioSpec is one sim.Scenario with every override serialized
// bit-exactly (floats as IEEE-754 bit patterns, see wire.Floats).
type sweepScenarioSpec struct {
	Name         string      `json:"name,omitempty"`
	Adversary    string      `json:"adversary,omitempty"`
	HasAdversary bool        `json:"has_adversary,omitempty"`
	Initial      wire.Floats `json:"initial,omitempty"`
	Faulty       []int       `json:"faulty,omitempty"`
	HasFaulty    bool        `json:"has_faulty,omitempty"`
	MaxRounds    int         `json:"max_rounds,omitempty"`
}

// sweepSpec identifies one scenario sweep: base configuration, scenario
// overrides, engine, and extras. Adversaries travel as canonical names
// (adversary.CanonicalName) and are re-resolved on the worker; rules
// likewise. Strategies and rules outside the named built-ins are not
// distributable — buildSweepSpec rejects them with a descriptive error.
type sweepSpec struct {
	Graph        string              `json:"graph"`
	Engine       string              `json:"engine"`
	Rule         string              `json:"rule"`
	F            int                 `json:"f"`
	Faulty       []int               `json:"faulty,omitempty"`
	HasFaulty    bool                `json:"has_faulty,omitempty"`
	Adversary    string              `json:"adversary,omitempty"`
	HasAdversary bool                `json:"has_adversary,omitempty"`
	Initial      wire.Floats         `json:"initial"`
	MaxRounds    int                 `json:"max_rounds"`
	Epsilon      uint64              `json:"epsilon"`
	RecordStates bool                `json:"record_states,omitempty"`
	Seed         int64               `json:"seed,omitempty"`
	Extras       wire.FloatRows      `json:"extras,omitempty"`
	Scenarios    []sweepScenarioSpec `json:"scenarios"`
}

// jobSpec is the kindSpec payload: a tagged union over the job kinds.
type jobSpec struct {
	Kind  string     `json:"kind"` // "scan" | "sweep" | "noop"
	Scan  *scanSpec  `json:"scan,omitempty"`
	Sweep *sweepSpec `json:"sweep,omitempty"`
}

// adversaryName canonicalizes a strategy for the wire, or errors when it is
// not a named built-in.
func adversaryName(s adversary.Strategy, where string) (string, error) {
	name, ok := adversary.CanonicalName(s)
	if !ok {
		return "", fmt.Errorf("distrib: %s adversary %q is not a named built-in; distributed sweeps require strategies resolvable by adversary.ByName", where, s.Name())
	}
	return name, nil
}

// buildScanSpec serializes a scan identity.
func buildScanSpec(g *graph.Graph, f, threshold int) ([]byte, error) {
	return json.Marshal(jobSpec{Kind: "scan", Scan: &scanSpec{
		Graph: g.EdgeListString(), F: f, Threshold: threshold,
	}})
}

// buildSweepSpec serializes a sweep identity, rejecting non-distributable
// pieces (custom rules, unnamed adversaries) with descriptive errors.
func buildSweepSpec(base sim.Config, scenarios []sim.Scenario, engineName string, extras [][]float64, seed int64) ([]byte, error) {
	spec := sweepSpec{
		Graph:        base.G.EdgeListString(),
		Engine:       engineName,
		F:            base.F,
		Initial:      base.Initial,
		MaxRounds:    base.MaxRounds,
		Epsilon:      math.Float64bits(base.Epsilon),
		RecordStates: base.RecordStates,
		Seed:         seed,
		Extras:       extras,
	}
	rule := base.Rule
	if rule == nil {
		rule = core.TrimmedMean{}
	}
	spec.Rule = rule.Name()
	if _, err := ruleByName(spec.Rule); err != nil {
		return nil, fmt.Errorf("distrib: base rule %q is not a named built-in; distributed sweeps require trimmed-mean, mean, or trimmed-midpoint", spec.Rule)
	}
	if base.Faulty.Cap() != 0 {
		spec.Faulty = base.Faulty.Members()
		spec.HasFaulty = true
	}
	if base.Adversary != nil {
		name, err := adversaryName(base.Adversary, "base")
		if err != nil {
			return nil, err
		}
		spec.Adversary, spec.HasAdversary = name, true
	}
	spec.Scenarios = make([]sweepScenarioSpec, len(scenarios))
	for i := range scenarios {
		s := &scenarios[i]
		ss := sweepScenarioSpec{
			Name:      s.Name,
			Initial:   s.Initial,
			MaxRounds: s.MaxRounds,
		}
		if s.Adversary != nil {
			name, err := adversaryName(s.Adversary, fmt.Sprintf("scenario %d", i))
			if err != nil {
				return nil, err
			}
			ss.Adversary, ss.HasAdversary = name, true
		}
		if s.HasFaulty || s.Faulty.Cap() != 0 {
			ss.Faulty = s.Faulty.Members()
			ss.HasFaulty = true
			if s.Faulty.Cap() == 0 {
				ss.Faulty = []int{}
			}
		}
		spec.Scenarios[i] = ss
	}
	return json.Marshal(jobSpec{Kind: "sweep", Sweep: &spec})
}

// buildNoopSpec serializes the benchmark's empty spec.
func buildNoopSpec() ([]byte, error) {
	return json.Marshal(jobSpec{Kind: "noop"})
}

// ruleByName resolves the built-in update rules.
func ruleByName(name string) (core.UpdateRule, error) {
	switch name {
	case "trimmed-mean":
		return core.TrimmedMean{}, nil
	case "mean":
		return core.Mean{}, nil
	case "trimmed-midpoint":
		return core.TrimmedMidpoint{}, nil
	default:
		return nil, fmt.Errorf("distrib: unknown rule %q", name)
	}
}

// engineByName resolves the synchronous engines a sweep spec may name.
func engineByName(name string) (sim.Engine, error) {
	switch name {
	case "sequential":
		return sim.Sequential{}, nil
	case "matrix":
		return sim.Matrix{}, nil
	default:
		return nil, fmt.Errorf("distrib: unknown engine %q", name)
	}
}

// workerSpec is a decoded spec's executable form, cached per connection.
type workerSpec struct {
	kind string
	// scan:
	scanner *condition.ShardScanner
	// sweep:
	base      sim.Config
	scenarios []sim.Scenario
	engine    sim.Engine
	extras    [][]float64
}

// resolveSpec decodes and materializes a spec payload on a worker.
func resolveSpec(payload []byte) (*workerSpec, error) {
	var spec jobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, fmt.Errorf("distrib: decoding spec: %w", err)
	}
	switch spec.Kind {
	case "noop":
		return &workerSpec{kind: "noop"}, nil
	case "scan":
		if spec.Scan == nil {
			return nil, fmt.Errorf("distrib: scan spec missing body")
		}
		g, err := graph.ParseEdgeListString(spec.Scan.Graph)
		if err != nil {
			return nil, fmt.Errorf("distrib: scan spec graph: %w", err)
		}
		scanner, err := condition.NewShardScanner(g, spec.Scan.F, spec.Scan.Threshold)
		if err != nil {
			return nil, err
		}
		return &workerSpec{kind: "scan", scanner: scanner}, nil
	case "sweep":
		return resolveSweepSpec(spec.Sweep)
	default:
		return nil, fmt.Errorf("distrib: unknown spec kind %q", spec.Kind)
	}
}

func resolveSweepSpec(spec *sweepSpec) (*workerSpec, error) {
	if spec == nil {
		return nil, fmt.Errorf("distrib: sweep spec missing body")
	}
	g, err := graph.ParseEdgeListString(spec.Graph)
	if err != nil {
		return nil, fmt.Errorf("distrib: sweep spec graph: %w", err)
	}
	engine, err := engineByName(spec.Engine)
	if err != nil {
		return nil, err
	}
	rule, err := ruleByName(spec.Rule)
	if err != nil {
		return nil, err
	}
	ws := &workerSpec{
		kind:   "sweep",
		engine: engine,
		extras: spec.Extras,
		base: sim.Config{
			G:            g,
			F:            spec.F,
			Initial:      spec.Initial,
			Rule:         rule,
			MaxRounds:    spec.MaxRounds,
			Epsilon:      math.Float64frombits(spec.Epsilon),
			RecordStates: spec.RecordStates,
		},
	}
	if spec.HasFaulty {
		ws.base.Faulty = nodeset.FromMembers(g.N(), spec.Faulty...)
	}
	if spec.HasAdversary {
		strat, err := adversary.ByName(spec.Adversary, spec.Seed)
		if err != nil {
			return nil, err
		}
		ws.base.Adversary = strat
	}
	ws.scenarios = make([]sim.Scenario, len(spec.Scenarios))
	for i, ss := range spec.Scenarios {
		s := sim.Scenario{
			Name:      ss.Name,
			Initial:   ss.Initial,
			MaxRounds: ss.MaxRounds,
		}
		if ss.HasAdversary {
			strat, err := adversary.ByName(ss.Adversary, spec.Seed)
			if err != nil {
				return nil, err
			}
			s.Adversary = strat
		}
		if ss.HasFaulty {
			s.HasFaulty = true
			s.Faulty = nodeset.FromMembers(g.N(), ss.Faulty...)
		}
		ws.scenarios[i] = s
	}
	return ws, nil
}
