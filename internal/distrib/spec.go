package distrib

// Job specs: the JSON payloads of kindSpec frames. A spec is the full,
// self-contained identity of an enumeration — everything a worker needs to
// execute any index range of it. Specs are immutable once registered, and a
// worker connection keeps the one it last resolved, so the (potentially
// large) JSON crosses the wire, and a scan's orbits are built, once per
// connection and phase.

import (
	"encoding/json"
	"fmt"

	"iabc/internal/condition"
	"iabc/internal/graph"
	"iabc/internal/sim"
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

// jobSpec is the kindSpec payload: a tagged union over the job kinds.
// A sweep's body is its sim.SweepSpec encoding, byte for byte the identity
// its checkpoint records carry.
type jobSpec struct {
	Kind  string          `json:"kind"` // "scan" | "sweep" | "noop"
	Scan  *scanSpec       `json:"scan,omitempty"`
	Sweep json.RawMessage `json:"sweep,omitempty"`
}

// buildScanSpec serializes a scan identity.
func buildScanSpec(g *graph.Graph, f, threshold int) ([]byte, error) {
	return json.Marshal(jobSpec{Kind: "scan", Scan: &scanSpec{
		Graph: g.EdgeListString(), F: f, Threshold: threshold,
	}})
}

// sweepJobSpec wraps a sweep's spec, rejecting up front what a worker
// could not rebuild (custom rules, unnamed adversaries).
func sweepJobSpec(spec *sim.SweepSpec) ([]byte, error) {
	if _, _, err := spec.Resolve(); err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	body, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	return json.Marshal(jobSpec{Kind: "sweep", Sweep: body})
}

// buildNoopSpec serializes the benchmark's empty spec.
func buildNoopSpec() ([]byte, error) {
	return json.Marshal(jobSpec{Kind: "noop"})
}

// workerSpec is a decoded spec's executable form, one connection's own.
type workerSpec struct {
	kind string
	// scan: the connection's scanner.
	scanner *condition.ShardScanner
	// sweep: scenario i runs cfgs[i] as decoded.
	engine sim.Engine
	cfgs   []sim.Config
	extras [][]float64
}

// resolveSpec decodes and materializes a spec payload on a worker. A scan's
// header order is checked against the checker's feasibility gate before the
// graph is parsed, so a spec naming millions of nodes is refused without
// allocating for them.
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
		n, err := graph.EdgeListOrder(spec.Scan.Graph)
		if err != nil {
			return nil, fmt.Errorf("distrib: scan spec graph: %w", err)
		}
		if err := condition.ValidateScan(n, spec.Scan.F, spec.Scan.Threshold); err != nil {
			return nil, err
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
		sweep, err := sim.DecodeSweepSpec(spec.Sweep)
		if err != nil {
			return nil, err
		}
		engine, cfgs, err := sweep.Resolve()
		if err != nil {
			return nil, err
		}
		return &workerSpec{kind: "sweep", engine: engine, cfgs: cfgs, extras: sweep.Extras}, nil
	default:
		return nil, fmt.Errorf("distrib: unknown spec kind %q", spec.Kind)
	}
}
