package iabc_test

// Facade-level pins for the cross-process deployment model: several Cluster
// calls, each animating a share of the nodes (WithLocalNodes) over its own
// TCP transport instance, must together behave as one cluster — and at
// f = 0 over loss-free loopback finish bit-identical to the deterministic
// simulator. This is the in-process twin of the multi-process CI gate
// (scripts/multiprocess_gate.sh), which runs the same topology as separate
// `iabc serve` processes.

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"iabc"
)

// tcpShards builds one TCPTransportConfig per shard over pre-bound loopback
// listeners (race-free ephemeral ports: the transport adopts the listener).
func tcpShards(t *testing.T, shards [][]int) []iabc.TCPTransportConfig {
	t.Helper()
	n := 0
	for _, s := range shards {
		n += len(s)
	}
	addrs := make([]string, n)
	lns := make([]net.Listener, len(shards))
	for si, shard := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[si] = ln
		for _, id := range shard {
			addrs[id] = ln.Addr().String()
		}
	}
	cfgs := make([]iabc.TCPTransportConfig, len(shards))
	for si, shard := range shards {
		cfgs[si] = iabc.TCPTransportConfig{
			Addrs:    addrs,
			Local:    shard,
			Listener: lns[si],
		}
	}
	return cfgs
}

// TestClusterShardedOverTCPMatchesSimulator splits a 6-node complete graph
// across three facade Cluster calls — two nodes each, real sockets between
// them — and requires the combined finals to be bit-identical to Simulate's.
func TestClusterShardedOverTCPMatchesSimulator(t *testing.T) {
	g, err := iabc.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	initial := []float64{3, 1, 4, 1.5, 9.2, 6}
	const maxRounds = 15

	want, err := iabc.Simulate(context.Background(), g,
		iabc.WithInitial(initial), iabc.WithMaxRounds(maxRounds))
	if err != nil {
		t.Fatal(err)
	}

	shards := [][]int{{0, 1}, {2, 3}, {4, 5}}
	cfgs := tcpShards(t, shards)
	results := make([]*iabc.ClusterResult, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for si, shard := range shards {
		si, shard := si, shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[si], errs[si] = iabc.Cluster(context.Background(), g,
				iabc.WithInitial(initial),
				iabc.WithMaxRounds(maxRounds),
				iabc.WithTCPTransport(cfgs[si]),
				iabc.WithLocalNodes(shard...),
				iabc.WithLinger(100*time.Millisecond),
				iabc.WithStallAfter(10*time.Second),
			)
		}()
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
	}
	for si, shard := range shards {
		for _, id := range shard {
			if got := results[si].Rounds[id]; got != maxRounds {
				t.Errorf("node %d stopped at round %d, want %d", id, got, maxRounds)
			}
			if math.Float64bits(results[si].Final[id]) != math.Float64bits(want.Final[id]) {
				t.Errorf("node %d: sharded TCP cluster %v != simulator %v",
					id, results[si].Final[id], want.Final[id])
			}
		}
	}
}

// TestClusterChaosOverTCPConverges composes the chaos layer over the wire
// transport — WithTCPTransport plus WithChaos, no extra plumbing — and
// requires ε-convergence despite drops and duplicates on a single-shard TCP
// cluster with a Byzantine node.
func TestClusterChaosOverTCPConverges(t *testing.T) {
	g, err := iabc.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, g.N())
	for i := range addrs {
		addrs[i] = ln.Addr().String()
	}
	res, err := iabc.Cluster(context.Background(), g,
		iabc.WithInitial([]float64{7, 3, 1, 4, 1.5, 9.2}),
		iabc.WithF(1),
		iabc.WithFaulty(5),
		iabc.WithNamedAdversary("extremes"),
		iabc.WithMaxRounds(500),
		iabc.WithEpsilon(1e-6),
		iabc.WithTCPTransport(iabc.TCPTransportConfig{Addrs: addrs, Listener: ln}),
		iabc.WithChaos(iabc.ChaosConfig{Seed: 3, Drop: 0.15, Dup: 0.1}),
		iabc.WithResendEvery(2*time.Millisecond),
		iabc.WithStallAfter(15*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("chaos-over-TCP cluster did not converge: stalled=%v range=%g",
			res.Stalled, res.FinalRange)
	}
}

// TestClusterTCPCrashedNodeNoHeadOfLineBlocking pins head-of-line safety
// on the shared connection: all six nodes sit behind one listener, so every
// frame between them travels the one connection the instance dials to
// itself, and one reader feeds every node's receive queue. Node 2 stops
// draining its queue for a crash window (the chaos layer refuses its links
// meanwhile); that must stall neither the shared connection nor the run,
// and node 2 must catch up after its restart. The forwarding delay keeps
// the run going past the window's start on any machine.
func TestClusterTCPCrashedNodeNoHeadOfLineBlocking(t *testing.T) {
	g, err := iabc.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, g.N())
	for i := range addrs {
		addrs[i] = ln.Addr().String()
	}
	const maxRounds = 200
	res, err := iabc.Cluster(context.Background(), g,
		iabc.WithInitial([]float64{7, 3, 1, 4, 1.5, 9.2}),
		iabc.WithF(1),
		iabc.WithMaxRounds(maxRounds),
		iabc.WithTCPTransport(iabc.TCPTransportConfig{Addrs: addrs, Listener: ln}),
		iabc.WithChaos(iabc.ChaosConfig{
			Seed:     1,
			MaxDelay: time.Millisecond,
			Crashes: []iabc.NodeCrash{
				{Node: 2, From: 5 * time.Millisecond, Until: 60 * time.Millisecond},
			},
		}),
		iabc.WithStallAfter(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatalf("cluster stalled behind the crashed node: rounds=%v", res.Rounds)
	}
	for i, r := range res.Rounds {
		if r != maxRounds {
			t.Errorf("node %d stopped at round %d, want %d", i, r, maxRounds)
		}
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", res.Restarts)
	}
}

// TestClusterTCPOptionErrors pins the facade-level misuse errors.
func TestClusterTCPOptionErrors(t *testing.T) {
	g, err := iabc.Complete(3)
	if err != nil {
		t.Fatal(err)
	}
	initial := []float64{1, 2, 3}
	if _, err := iabc.Cluster(context.Background(), g,
		iabc.WithInitial(initial),
		iabc.WithTCPTransport(iabc.TCPTransportConfig{Addrs: []string{"127.0.0.1:1"}}),
	); err == nil {
		t.Error("address count mismatch accepted")
	}
	if _, err := iabc.Cluster(context.Background(), g,
		iabc.WithInitial(initial),
		iabc.WithTransport(iabc.NewInprocTransport(3, 0)),
		iabc.WithTCPTransport(iabc.TCPTransportConfig{Addrs: make([]string, 3)}),
	); err == nil {
		t.Error("WithTransport + WithTCPTransport accepted")
	}
}
