package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"iabc"
)

// cmdServe runs this process's share of a cross-process cluster: the node
// actors listed in -id, over a TCP transport whose address map comes from
// the -peers file, against the same topology and seed every other process
// was started with. Every process derives the identical initial vector from
// -seed, so at f = 0 over a loss-free network the collected finals must be
// bit-identical to the single-process oracle (`iabc run -finals`) — the
// multi-process CI gate diffs exactly that.
//
// The peers file maps every node id to its host:port, one per line:
//
//	# node  address
//	0 127.0.0.1:9000
//	1 127.0.0.1:9001
//	2 127.0.0.1:9002
//
// All of a process's -id nodes must share one address — a process has one
// listener. Finals are printed as hex floats (one `final <id> <value>` line
// per local node) so bit-identity is diffable as text.
func cmdServe(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	in := instanceFlags(fs, 0, 50, 0, map[string]string{
		"topo":      "topology spec (required; must match every peer)",
		"faulty":    "comma-separated faulty node IDs (locally hosted ones are adversary-driven)",
		"adversary": "byzantine strategy for local faulty nodes",
		"rounds":    "rounds each local node runs",
		"eps":       "local convergence threshold (0 = run all rounds; judge convergence over the collected finals)",
		"seed":      "shared seed: every process derives the same initial vector from it",
	})
	idList := fs.String("id", "", "comma-separated node ids this process animates (required)")
	peersPath := fs.String("peers", "", "peers file mapping every node id to host:port (required)")
	resend := fs.Duration("resend", 0, "tick interval: a node that made no progress since the last tick asks for the values it lacks (0 = default)")
	stall := fs.Duration("stall", 10*time.Second, "liveness cutoff: give up after this long without local progress (0 = none)")
	linger := fs.Duration("linger", 500*time.Millisecond, "keep answering asks from history this long after local completion, so laggard peers can finish")
	timeout := fs.Duration("timeout", 0, "cancel the whole run after this long (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.resolve(stdin); err != nil {
		return err
	}
	g, n, initial := in.g, in.g.N(), in.initial
	local, err := parseNodeList(*idList)
	if err != nil {
		return err
	}
	if len(local) == 0 {
		return fmt.Errorf("cli: serve needs -id (the node ids this process animates)")
	}
	addrs, err := parsePeers(*peersPath, n)
	if err != nil {
		return err
	}
	// One process, one listener: every local id must resolve to it.
	listen := addrs[local[0]]
	for _, id := range local {
		if id < 0 || id >= n {
			return fmt.Errorf("cli: local node %d outside [0,%d)", id, n)
		}
		if addrs[id] != listen {
			return fmt.Errorf("cli: local nodes %d and %d map to different addresses (%s vs %s); a process has one listener",
				local[0], id, listen, addrs[id])
		}
	}
	// Validity reference: the fault-free initial hull. Every fault-free
	// update must stay inside it (Section 2.2's validity condition).
	faultFree := iabc.SetOf(n, in.faulty...).Complement()
	hullLo, hullHi := math.Inf(1), math.Inf(-1)
	faultFree.ForEach(func(i int) bool {
		hullLo, hullHi = math.Min(hullLo, initial[i]), math.Max(hullHi, initial[i])
		return true
	})
	validityViolated := false

	opts := append(in.options(),
		iabc.WithResendEvery(*resend),
		iabc.WithStallAfter(*stall),
		iabc.WithLocalNodes(local...),
		iabc.WithLinger(*linger),
		iabc.WithTCPTransport(iabc.TCPTransportConfig{Addrs: addrs, Listen: listen}),
		iabc.WithObserver(func(e iabc.Event) {
			if e.Kind == iabc.EventNodeUpdate && (e.Value < hullLo-1e-9 || e.Value > hullHi+1e-9) {
				validityViolated = true
			}
		}),
	)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fmt.Fprintf(stdout, "graph: %s  f=%d  local=%s  listen=%s\n",
		g, in.f, iabc.SetOf(n, local...), listen)
	res, err := iabc.Cluster(ctx, g, opts...)
	if err != nil {
		return err
	}
	for _, id := range local {
		if faultFree.Contains(id) {
			fmt.Fprintf(stdout, "final %d %s\n", id, strconv.FormatFloat(res.Final[id], 'x', -1, 64))
		}
	}
	localFree := iabc.SetOf(n, local...).Intersect(faultFree)
	minRound := 0
	if !localFree.Empty() {
		minRound = res.MinRound(localFree)
	}
	fmt.Fprintf(stdout, "verdict: %s  min round: %d  elapsed: %s\n",
		clusterVerdict(res), minRound, res.Elapsed.Round(time.Millisecond))
	if validityViolated {
		fmt.Fprintln(stdout, "VALIDITY VIOLATED: a local update left the fault-free initial hull")
	} else {
		fmt.Fprintln(stdout, "validity: held")
	}
	fmt.Fprintf(stdout, "traffic: %d deliveries, %d updates, %d resends, %d abandoned sends, %d queue drops\n",
		res.Deliveries, res.Updates, res.Resends, res.Abandoned, res.OutDropped)
	return nil
}

// parsePeers reads a peers file: one "id host:port" line per node, '#'
// comments and blank lines ignored. Every id in [0, n) must appear exactly
// once.
func parsePeers(path string, n int) ([]string, error) {
	if path == "" {
		return nil, fmt.Errorf("cli: serve needs -peers (the id -> host:port map)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cli: %w", err)
	}
	addrs := make([]string, n)
	seen := make([]bool, n)
	for ln, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("cli: %s:%d: want 'id host:port', got %q", path, ln+1, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 || id >= n {
			return nil, fmt.Errorf("cli: %s:%d: node id %q outside [0,%d)", path, ln+1, fields[0], n)
		}
		if seen[id] {
			return nil, fmt.Errorf("cli: %s:%d: duplicate entry for node %d", path, ln+1, id)
		}
		seen[id] = true
		addrs[id] = fields[1]
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("cli: %s: no address for node %d", path, id)
		}
	}
	return addrs, nil
}
