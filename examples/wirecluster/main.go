// Wirecluster: the Section 7 iteration sharded over real sockets. Six nodes
// of a complete graph are split across three independent Cluster calls —
// each animating two nodes over its own TCP transport instance, exactly the
// shape of three `iabc serve` processes on three machines — and the
// combined finals are compared bit-for-bit against the deterministic
// simulator, the conformance oracle the whole runtime hangs on.
//
// Everything rides the public facade: WithTCPTransport supplies the address
// map, WithLocalNodes picks each shard's share, and WithLinger keeps a
// finished shard answering laggards' asks from its history so its exit never
// masquerades as a crash.
//
// Run: go run ./examples/wirecluster
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"sync"
	"time"

	"iabc"
)

func main() {
	g, err := iabc.Complete(6)
	if err != nil {
		log.Fatal(err)
	}
	initial := []float64{3, 1, 4, 1.5, 9.2, 6}
	const maxRounds = 15

	// The oracle: one deterministic simulator run.
	want, err := iabc.Simulate(context.Background(), g,
		iabc.WithInitial(initial), iabc.WithMaxRounds(maxRounds))
	if err != nil {
		log.Fatal(err)
	}

	// One listener per shard; the address map covers all six nodes.
	shards := [][]int{{0, 1}, {2, 3}, {4, 5}}
	addrs := make([]string, g.N())
	listeners := make([]net.Listener, len(shards))
	for si, shard := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[si] = ln
		for _, id := range shard {
			addrs[id] = ln.Addr().String()
		}
	}

	// Three concurrent cluster shares — in separate processes these would be
	// three `iabc serve` invocations with a shared peers file.
	results := make([]*iabc.ClusterResult, len(shards))
	var wg sync.WaitGroup
	for si, shard := range shards {
		si, shard := si, shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := iabc.Cluster(context.Background(), g,
				iabc.WithInitial(initial),
				iabc.WithMaxRounds(maxRounds),
				iabc.WithTCPTransport(iabc.TCPTransportConfig{
					Addrs: addrs, Local: shard, Listener: listeners[si],
				}),
				iabc.WithLocalNodes(shard...),
				iabc.WithLinger(100*time.Millisecond),
				iabc.WithStallAfter(10*time.Second),
			)
			if err != nil {
				log.Fatal(err)
			}
			results[si] = res
		}()
	}
	wg.Wait()

	identical := true
	for si, shard := range shards {
		for _, id := range shard {
			v := results[si].Final[id]
			fmt.Printf("node %d (shard %d): final %v\n", id, si, v)
			if math.Float64bits(v) != math.Float64bits(want.Final[id]) {
				identical = false
			}
		}
	}
	fmt.Printf("bit-identical to the simulator: %v\n", identical)
}
