package distrib

// Job specs: the JSON payloads of kindSpec frames. A spec is the full,
// self-contained identity of an enumeration — everything a worker needs to
// execute any index range of it. Specs are immutable once registered, and a
// worker connection keeps the one it last resolved, so the JSON crosses the
// wire, and a scan's scanner is built, once per connection and phase.
//
// A scan spec ships what the coordinator built its own scanner from (job
// wire version 3): the graph's canonical encoding (graph.Encode, the string
// its checkpoint records key on) and the automorphism generators its orbits
// were closed under, packed one byte per image. The worker searches for no
// automorphism and parses no edge list. A spec is input from the network, so
// the worker trusts none of it: graph.Decode refuses a non-canonical
// encoding, and condition.NewShardScannerWith refuses generators that are
// not automorphisms of the decoded graph, before any orbit is built. The
// orbits of any subgroup of Aut(G) are sound (docs/THEORY.md, "Symmetry"),
// and coordinator and worker close the same index space under the same
// generators, so their spans agree and every dictated slice end is a span
// end on both sides.
import (
	"encoding/json"
	"fmt"

	"iabc/internal/condition"
	"iabc/internal/graph"
	"iabc/internal/sim"
)

// scanSpec identifies one exact-check scan: any worker holding it can
// reproduce the canonical fault-set enumeration, its orbits, and scan any
// range.
type scanSpec struct {
	// Graph is the canonical encoding (graph.Encode).
	Graph     string `json:"graph"`
	F         int    `json:"f"`
	Threshold int    `json:"threshold"`
	// Gens holds the coordinator's automorphism generators, n bytes each:
	// byte k·n + v is the image of node v under generator k.
	Gens []byte `json:"gens,omitempty"`
}

// jobSpec is the kindSpec payload: a tagged union over the job kinds.
// A sweep's body is its sim.SweepSpec encoding, byte for byte the identity
// its checkpoint records carry.
type jobSpec struct {
	Kind  string          `json:"kind"` // "scan" | "sweep" | "noop"
	Scan  *scanSpec       `json:"scan,omitempty"`
	Sweep json.RawMessage `json:"sweep,omitempty"`
}

// buildScanSpec serializes a scan identity and the generators of its
// orbits, which condition.ScanGenerators keeps to graphs of at most 62
// nodes, so every image fits a byte.
func buildScanSpec(g *graph.Graph, f, threshold int, gens [][]int) ([]byte, error) {
	packed := make([]byte, 0, len(gens)*g.N())
	for _, perm := range gens {
		for _, w := range perm {
			packed = append(packed, byte(w))
		}
	}
	return json.Marshal(jobSpec{Kind: "scan", Scan: &scanSpec{
		Graph: g.Encode(), F: f, Threshold: threshold, Gens: packed,
	}})
}

// unpackGenerators splits a scan spec's packed generators into n-image
// permutations, refusing any count the scanner would refuse before
// allocating for it.
func unpackGenerators(n int, packed []byte) ([][]int, error) {
	if len(packed)%n != 0 || len(packed)/n > n-1 {
		return nil, fmt.Errorf("distrib: scan spec generators: %d bytes are not at most n−1 permutations of n = %d nodes", len(packed), n)
	}
	gens := make([][]int, len(packed)/n)
	images := make([]int, len(packed))
	for i, w := range packed {
		images[i] = int(w)
	}
	for k := range gens {
		gens[k] = images[k*n : (k+1)*n : (k+1)*n]
	}
	return gens, nil
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
// order is checked against the checker's feasibility gate before the graph
// is decoded, so a spec naming millions of nodes is refused without
// allocating for them; its generators are verified before its orbits are
// built.
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
		n, err := graph.EncodedOrder(spec.Scan.Graph)
		if err != nil {
			return nil, fmt.Errorf("distrib: scan spec graph: %w", err)
		}
		if err := condition.ValidateScan(n, spec.Scan.F, spec.Scan.Threshold); err != nil {
			return nil, err
		}
		gens, err := unpackGenerators(n, spec.Scan.Gens)
		if err != nil {
			return nil, err
		}
		g, err := graph.Decode(spec.Scan.Graph)
		if err != nil {
			return nil, fmt.Errorf("distrib: scan spec graph: %w", err)
		}
		scanner, err := condition.NewShardScannerWith(g, spec.Scan.F, spec.Scan.Threshold, gens)
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
