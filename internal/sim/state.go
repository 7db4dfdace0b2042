package sim

// Sweep-level durability: each completed scenario of a Sweep is persisted
// as one record through a statestore.Backend, so a SIGKILLed sweep resumes
// scenario-identically — the checker's checkpoint/resume story (see
// internal/condition/state.go) extended to the simulation side.
//
// Soundness: a scenario's trace is a pure function of its derived Config
// (engines are deterministic; randomized adversaries are seeded at
// construction). A sweep is therefore described once, by a SweepSpec of its
// derived configs — graph, engine, rule and adversary names, every float of
// every initial vector — plus a caller-supplied salt for identity the config
// cannot see (the seed behind a *RandomNoise). The spec's bytes are the
// state key's identity, and the same bytes are the job spec a distributed
// coordinator ships to its workers. Floats are IEEE-754 bit patterns
// (wire.Floats), so a resumed or remote trace is bit-identical to a local
// one, NaN and ±Inf included. A sweep under Config.Stale has no spec: a
// policy's Name() does not pin its schedule, so it is neither checkpointed
// nor shipped.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
	"iabc/internal/wire"
)

// sweepStateVersion versions the persisted scenario body and the identity
// string's schema; bump on any change so stale records miss
// (statestore.Record.Load) instead of misparsing. 2: the body moved under
// the statestore envelope. 3: the identity became the SweepSpec encoding.
const sweepStateVersion = 3

// traceRecord is the bit-exact serialized image of a Trace.
type traceRecord struct {
	Rounds        int            `json:"rounds"`
	Converged     bool           `json:"converged"`
	U             wire.Floats    `json:"u"`
	Mu            wire.Floats    `json:"mu"`
	States        wire.FloatRows `json:"states,omitempty"`
	Final         wire.Floats    `json:"final"`
	FaultFreeN    int            `json:"fault_free_n"`
	FaultFree     []int          `json:"fault_free"`
	RuleName      string         `json:"rule"`
	AdversaryName string         `json:"adversary"`
}

// scenarioResultRecord pairs a trace with its extras finals — the payload a
// distributed worker ships back and the sweep checkpoint stores.
type scenarioResultRecord struct {
	Trace  traceRecord    `json:"trace"`
	Finals wire.FloatRows `json:"finals,omitempty"`
}

func toScenarioResultRecord(tr *Trace, finals [][]float64) scenarioResultRecord {
	return scenarioResultRecord{Finals: finals, Trace: traceRecord{
		Rounds:        tr.Rounds,
		Converged:     tr.Converged,
		U:             tr.U,
		Mu:            tr.Mu,
		States:        tr.States,
		Final:         tr.Final,
		FaultFreeN:    tr.FaultFree.Cap(),
		FaultFree:     tr.FaultFree.Members(),
		RuleName:      tr.RuleName,
		AdversaryName: tr.AdversaryName,
	}}
}

// result rebuilds the trace, or errors when the fault-free set does not fit
// the final state vector.
func (rec *scenarioResultRecord) result() (*Trace, [][]float64, error) {
	tr := &rec.Trace
	if tr.FaultFreeN != len(tr.Final) {
		return nil, nil, fmt.Errorf("sim: fault-free capacity %d, but %d final states", tr.FaultFreeN, len(tr.Final))
	}
	faultFree, err := nodeset.Decode(tr.FaultFreeN, tr.FaultFree)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: fault-free set: %w", err)
	}
	return &Trace{
		Rounds:        tr.Rounds,
		Converged:     tr.Converged,
		U:             tr.U,
		Mu:            tr.Mu,
		States:        tr.States,
		Final:         tr.Final,
		FaultFree:     faultFree,
		RuleName:      tr.RuleName,
		AdversaryName: tr.AdversaryName,
	}, rec.Finals, nil
}

// EncodeScenarioResult serializes one scenario's outcome bit-exactly for the
// distributed runner's result frames — the same image the sweep checkpoint
// stores as its record body.
func EncodeScenarioResult(tr *Trace, finals [][]float64) ([]byte, error) {
	return json.Marshal(toScenarioResultRecord(tr, finals))
}

// DecodeScenarioResult inverts EncodeScenarioResult.
func DecodeScenarioResult(raw []byte) (*Trace, [][]float64, error) {
	var rec scenarioResultRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, nil, fmt.Errorf("sim: decoding scenario result: %w", err)
	}
	return rec.result()
}

// SweepSpec describes one sweep completely: the graph, the engine, one
// entry per derived scenario config, the extras and the caller's StateSalt.
// Its encoding is the identity every scenario record's envelope carries
// whole (see statestore.Record), and it is the job spec a distributed
// coordinator registers: a worker rebuilds the configs with Resolve and runs
// scenario i from the i-th, so no override merging happens past this point.
type SweepSpec struct {
	// Graph is the edge-list encoding (graph.EdgeListString).
	Graph     string         `json:"graph"`
	Engine    string         `json:"engine"`
	StateSalt string         `json:"salt,omitempty"`
	Scenarios []ScenarioSpec `json:"scenarios"`
	Extras    wire.FloatRows `json:"extras,omitempty"`
}

// ScenarioSpec is one derived scenario config: every input that determines
// its trace, floats as IEEE-754 bit patterns.
type ScenarioSpec struct {
	Name string `json:"name"`
	// Adversary is the strategy's adversary.CanonicalName, empty for none.
	// Unnamed marks it as the strategy's Name() instead: a strategy that
	// ByName cannot rebuild, so Resolve rejects it.
	Adversary    string      `json:"adversary,omitempty"`
	Unnamed      bool        `json:"unnamed,omitempty"`
	Rule         string      `json:"rule"`
	F            int         `json:"f"`
	MaxRounds    int         `json:"max_rounds"`
	Epsilon      uint64      `json:"epsilon"`
	Faulty       []int       `json:"faulty"`
	Initial      wire.Floats `json:"initial"`
	RecordStates bool        `json:"record_states,omitempty"`
}

// NewSweepSpec describes the sweep Sweep(ctx, base, scenarios, opts) would
// run, deriving and validating every scenario config as Sweep does.
func NewSweepSpec(base Config, scenarios []Scenario, opts SweepOptions) (*SweepSpec, error) {
	cfgs, err := deriveConfigs(base, scenarios)
	if err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: sweep spec needs at least one scenario")
	}
	engine := opts.Engine
	if engine == nil {
		engine = Sequential{}
	}
	return describeSweep(engine.Name(), opts.StateSalt, cfgs, scenarios, opts.Extras)
}

// describeSweep builds the spec of validated, derived configs.
func describeSweep(engineName, salt string, cfgs []Config, scenarios []Scenario, extras [][]float64) (*SweepSpec, error) {
	spec := &SweepSpec{
		Graph:     cfgs[0].G.EdgeListString(),
		Engine:    engineName,
		StateSalt: salt,
		Scenarios: make([]ScenarioSpec, len(cfgs)),
		Extras:    extras,
	}
	for i := range cfgs {
		cfg := &cfgs[i]
		if cfg.Stale != nil {
			return nil, errors.New("sim: a sweep under Config.Stale is neither checkpointed nor shipped to workers")
		}
		sc := ScenarioSpec{
			Name:         scenarioName(&scenarios[i]),
			Rule:         cfg.Rule.Name(),
			F:            cfg.F,
			MaxRounds:    cfg.MaxRounds,
			Epsilon:      math.Float64bits(cfg.Epsilon),
			Faulty:       adversary.FaultSet(cfg.G, cfg.Faulty).Members(),
			Initial:      cfg.Initial,
			RecordStates: cfg.RecordStates,
		}
		if cfg.Adversary != nil {
			var ok bool
			if sc.Adversary, ok = adversary.CanonicalName(cfg.Adversary); !ok {
				sc.Adversary, sc.Unnamed = cfg.Adversary.Name(), true
			}
		}
		spec.Scenarios[i] = sc
	}
	return spec, nil
}

// Encode returns the spec's canonical bytes.
func (s *SweepSpec) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSweepSpec inverts Encode; Resolve rebuilds what it describes.
func DecodeSweepSpec(raw []byte) (*SweepSpec, error) {
	var s SweepSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("sim: decoding sweep spec: %w", err)
	}
	return &s, nil
}

// maxSweepSpecOrder caps the order a sweep spec's graph may declare. A spec
// arrives from outside the process, and the graph it names is built as an
// adjacency of n²/4 bytes before any edge is read; 1<<14 nodes is 64 MiB,
// well above the thousands of nodes a sweep is practical for (README,
// "Practical envelopes").
const maxSweepSpecOrder = 1 << 14

// Resolve rebuilds the engine and one Config per scenario. It fails on
// anything it cannot rebuild exactly: an unnamed strategy, a rule or engine
// outside the built-ins, a fault id outside the graph, a graph of more than
// maxSweepSpecOrder nodes (refused from its header, before it is built), or
// no scenario at all. The configs are not validated; Sweep does that before
// it runs them.
func (s *SweepSpec) Resolve() (Engine, []Config, error) {
	if len(s.Scenarios) == 0 {
		return nil, nil, fmt.Errorf("sim: sweep spec has no scenarios")
	}
	n, err := graph.EdgeListOrder(s.Graph)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: sweep spec graph: %w", err)
	}
	if n > maxSweepSpecOrder {
		return nil, nil, fmt.Errorf("sim: sweep spec graph has %d nodes, more than the %d a sweep spec may declare", n, maxSweepSpecOrder)
	}
	g, err := graph.ParseEdgeListString(s.Graph)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: sweep spec graph: %w", err)
	}
	var engine Engine
	switch s.Engine {
	case "sequential":
		engine = Sequential{}
	case "matrix":
		engine = Matrix{}
	default:
		return nil, nil, fmt.Errorf("sim: unknown engine %q", s.Engine)
	}
	cfgs := make([]Config, len(s.Scenarios))
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		if cfgs[i], err = sc.config(g); err != nil {
			return nil, nil, fmt.Errorf("sim: scenario %d (%s): %w", i, sc.Name, err)
		}
	}
	return engine, cfgs, nil
}

// config rebuilds one scenario's Config over g.
func (sc *ScenarioSpec) config(g *graph.Graph) (Config, error) {
	var rule core.UpdateRule
	switch sc.Rule {
	case "trimmed-mean":
		rule = core.TrimmedMean{}
	case "mean":
		rule = core.Mean{}
	case "trimmed-midpoint":
		rule = core.TrimmedMidpoint{}
	default:
		return Config{}, fmt.Errorf("rule %q is not a named built-in; distributed sweeps require trimmed-mean, mean, or trimmed-midpoint", sc.Rule)
	}
	if sc.Unnamed {
		return Config{}, fmt.Errorf("adversary %q is not a named built-in; distributed sweeps require strategies resolvable by adversary.ByName", sc.Adversary)
	}
	faulty, err := nodeset.Decode(g.N(), sc.Faulty)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		G: g, F: sc.F, Faulty: faulty, Initial: sc.Initial, Rule: rule,
		MaxRounds: sc.MaxRounds, Epsilon: math.Float64frombits(sc.Epsilon),
		RecordStates: sc.RecordStates,
	}
	if sc.Adversary != "" {
		// No canonical name is seeded ("noise" has none), so the seed is
		// never read; the round trip below rejects every alias.
		if cfg.Adversary, err = adversary.ByName(sc.Adversary, 0); err != nil {
			return Config{}, err
		}
		if name, _ := adversary.CanonicalName(cfg.Adversary); name != sc.Adversary {
			return Config{}, fmt.Errorf("adversary %q is not a canonical name", sc.Adversary)
		}
	}
	return cfg, nil
}

// sweepScenarioBody is the persisted image of one completed scenario.
type sweepScenarioBody struct {
	Index  int                  `json:"index"`
	Result scenarioResultRecord `json:"result"`
}

// sweepState carries one Sweep run's persistence: the record every
// scenario's own record ("sweep/<hash>/s<index>") derives from.
type sweepState struct{ base statestore.Record }

// newSweepState keys the sweep's records by its spec's bytes.
func newSweepState(store statestore.Backend, spec *SweepSpec) (*sweepState, error) {
	ident, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	return &sweepState{statestore.NewRecord(store, "sweep", sweepStateVersion, string(ident))}, nil
}

func (ss *sweepState) record(i int) statestore.Record {
	return ss.base.Sub(fmt.Sprintf("/s%06d", i))
}

// load returns scenario i's persisted result, or (nil, nil, nil) when there
// is no usable record — that scenario simply re-runs.
func (ss *sweepState) load(ctx context.Context, i int) (*Trace, [][]float64, error) {
	var body sweepScenarioBody
	ok, err := ss.record(i).Load(ctx, &body)
	if err != nil || !ok || body.Index != i {
		return nil, nil, err
	}
	tr, finals, err := body.Result.result()
	if err != nil {
		return nil, nil, nil // a body that does not decode is a miss
	}
	return tr, finals, nil
}

// save persists scenario i's completed result.
func (ss *sweepState) save(ctx context.Context, i int, tr *Trace, finals [][]float64) error {
	return ss.record(i).Save(ctx, sweepScenarioBody{Index: i, Result: toScenarioResultRecord(tr, finals)})
}
