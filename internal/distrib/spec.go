package distrib

// Job specs: the JSON payloads of kindSpec frames. A spec is the full,
// self-contained identity of an enumeration — everything a worker needs to
// execute any index range of it. Specs are immutable once registered and
// cached per worker pool by specID, so the (potentially large) JSON crosses
// the wire, and a scan's orbit table is built, once per pool.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

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

// workerSpec is a decoded spec's executable form. A pool's cache holds one
// per spec, and each connection runs its own fork of it.
type workerSpec struct {
	kind string
	// scan: the cached spec's scanner holds the orbit table its forks share.
	scanner *condition.ShardScanner
	// sweep: scenario i runs cfgs[i] as decoded.
	sweep  *sim.SweepSpec
	engine sim.Engine
	cfgs   []sim.Config
	extras [][]float64
}

// fork returns a copy of ws one connection may run while others run theirs:
// a scan forks the scanner, sharing its orbit table, and a sweep resolves
// its configs afresh, since a strategy may keep scratch state between calls.
func (ws *workerSpec) fork() (*workerSpec, error) {
	switch ws.kind {
	case "scan":
		return &workerSpec{kind: ws.kind, scanner: ws.scanner.Fork()}, nil
	case "sweep":
		return resolveSweep(ws.sweep)
	default:
		return ws, nil
	}
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
		return resolveSweep(sweep)
	default:
		return nil, fmt.Errorf("distrib: unknown spec kind %q", spec.Kind)
	}
}

// resolveSweep rebuilds a decoded sweep's engine and configs.
func resolveSweep(sweep *sim.SweepSpec) (*workerSpec, error) {
	engine, cfgs, err := sweep.Resolve()
	if err != nil {
		return nil, err
	}
	return &workerSpec{kind: "sweep", sweep: sweep, engine: engine, cfgs: cfgs, extras: sweep.Extras}, nil
}

// specCache holds the specs one worker pool has resolved, by spec ID. The
// first connection to need a spec fetches and resolves it and runs the
// cached copy itself; the others wait for it rather than fetch it again, and
// run forks of it, which read only what the cached copy's runner never
// writes (the orbit table, the decoded sweep).
type specCache struct {
	mu      sync.Mutex
	specs   map[uint64]*cachedSpec
	fetches int // fetch calls made, failed ones included
}

func newSpecCache() *specCache { return &specCache{specs: make(map[uint64]*cachedSpec)} }

// cachedSpec is one entry of a specCache.
type cachedSpec struct {
	ready chan struct{} // closed once ws or err is set
	ws    *workerSpec
	err   error
}

// get returns the caller's own copy of spec id, calling fetch to resolve it
// unless another connection of the pool has or is resolving it. A fetch
// that fails leaves no entry behind, so a connection that waited on it
// fetches the spec over its own connection instead: the failure may be the
// fetcher's connection, not the spec.
func (c *specCache) get(ctx context.Context, id uint64, fetch func() (*workerSpec, error)) (*workerSpec, error) {
	for {
		c.mu.Lock()
		e, ok := c.specs[id]
		if !ok {
			e = &cachedSpec{ready: make(chan struct{})}
			c.specs[id] = e
			c.fetches++
		}
		c.mu.Unlock()
		if !ok {
			e.ws, e.err = fetch()
			if e.err != nil {
				c.mu.Lock()
				delete(c.specs, id)
				c.mu.Unlock()
			}
			close(e.ready)
			return e.ws, e.err
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		if e.err == nil {
			return e.ws.fork()
		}
	}
}
