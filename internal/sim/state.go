package sim

// Sweep-level durability: each completed scenario of a Sweep is persisted
// as one record through a statestore.Backend, so a SIGKILLed sweep resumes
// scenario-identically — the checker's checkpoint/resume story (see
// internal/condition/state.go) extended to the simulation side, closing the
// asymmetry ROADMAP item 2 notes.
//
// Soundness: a scenario's trace is a pure function of its derived Config
// (engines are deterministic; randomized adversaries are seeded at
// construction). The sweep's state key therefore hashes the full derived
// identity — graph encoding, engine, rule, adversary names, every float of
// every initial vector — plus a caller-supplied salt for identity the
// config cannot see (the seed behind a *RandomNoise). Floats are stored as
// IEEE-754 bit patterns (wire.Floats), so a resumed trace is bit-identical to
// the one the interrupted run produced, NaN and ±Inf included.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"iabc/internal/nodeset"
	"iabc/internal/statestore"
	"iabc/internal/wire"
)

// sweepStateVersion versions the persisted scenario body and the identity
// string's schema; bump on any change so stale records miss
// (statestore.Record.Load) instead of misparsing. 2: the body moved under
// the statestore envelope.
const sweepStateVersion = 2

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

func (rec *scenarioResultRecord) result() (*Trace, [][]float64) {
	tr := &rec.Trace
	return &Trace{
		Rounds:        tr.Rounds,
		Converged:     tr.Converged,
		U:             tr.U,
		Mu:            tr.Mu,
		States:        tr.States,
		Final:         tr.Final,
		FaultFree:     nodeset.FromMembers(tr.FaultFreeN, tr.FaultFree...),
		RuleName:      tr.RuleName,
		AdversaryName: tr.AdversaryName,
	}, rec.Finals
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
	tr, finals := rec.result()
	return tr, finals, nil
}

// sweepScenarioKeyRecord is what the state key hashes per scenario — every
// input that determines the trace.
type sweepScenarioKeyRecord struct {
	Name      string      `json:"name"`
	Adversary string      `json:"adversary"`
	Rule      string      `json:"rule"`
	F         int         `json:"f"`
	MaxRounds int         `json:"max_rounds"`
	Epsilon   uint64      `json:"epsilon"`
	Faulty    []int       `json:"faulty"`
	Initial   wire.Floats `json:"initial"`
	Record    bool        `json:"record_states"`
}

// sweepIdent derives the sweep's full identity string, which every scenario
// record's envelope carries whole (see statestore.Record).
func sweepIdent(engineName, salt string, cfgs []Config, scenarios []Scenario, extras [][]float64) (string, error) {
	keys := make([]sweepScenarioKeyRecord, len(cfgs))
	for i := range cfgs {
		cfg := &cfgs[i]
		_, advName := names(cfg)
		keys[i] = sweepScenarioKeyRecord{
			Name:      scenarioName(&scenarios[i]),
			Adversary: advName,
			Rule:      cfg.Rule.Name(),
			F:         cfg.F,
			MaxRounds: cfg.MaxRounds,
			Epsilon:   math.Float64bits(cfg.Epsilon),
			Faulty:    cfg.faulty().Members(),
			Initial:   cfg.Initial,
			Record:    cfg.RecordStates,
		}
	}
	ident, err := json.Marshal(struct {
		Graph     string                   `json:"graph"`
		Engine    string                   `json:"engine"`
		Salt      string                   `json:"salt,omitempty"`
		Scenarios []sweepScenarioKeyRecord `json:"scenarios"`
		Extras    wire.FloatRows           `json:"extras,omitempty"`
	}{cfgs[0].G.Encode(), engineName, salt, keys, extras})
	if err != nil {
		return "", err
	}
	return string(ident), nil
}

// sweepScenarioBody is the persisted image of one completed scenario.
type sweepScenarioBody struct {
	Index  int                  `json:"index"`
	Result scenarioResultRecord `json:"result"`
}

// sweepState carries one Sweep run's persistence: the record every
// scenario's own record ("sweep/<hash>/s<index>") derives from.
type sweepState struct{ base statestore.Record }

// newSweepState derives the sweep identity and key prefix.
func newSweepState(store statestore.Backend, engineName, salt string, cfgs []Config, scenarios []Scenario, extras [][]float64) (*sweepState, error) {
	ident, err := sweepIdent(engineName, salt, cfgs, scenarios, extras)
	if err != nil {
		return nil, err
	}
	return &sweepState{statestore.NewRecord(store, "sweep", sweepStateVersion, ident)}, nil
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
	tr, finals := body.Result.result()
	return tr, finals, nil
}

// save persists scenario i's completed result.
func (ss *sweepState) save(ctx context.Context, i int, tr *Trace, finals [][]float64) error {
	return ss.record(i).Save(ctx, sweepScenarioBody{Index: i, Result: toScenarioResultRecord(tr, finals)})
}
