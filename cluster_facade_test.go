package iabc_test

// Facade contract of Cluster: conformance to the deterministic Async engine
// in the loss-free f = 0 regime, the paper's §7 experiment (E8) under
// Byzantine faults, chaos convergence with serialized observer streaming,
// caller-owned transport semantics, and option-level errors.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iabc"
	"iabc/internal/experiments"
)

func clusterInitial(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((i*7)%n) + 0.25
	}
	return v
}

// TestClusterMatchesSimulateAsync pins the live cluster against the
// deterministic conformance oracle: with f = 0 and loss-free delivery the
// quorum is the full in-neighborhood, the result is arrival-order
// independent, and the fault-free finals must be bit-identical to the Async
// engine's under any fixed delay.
func TestClusterMatchesSimulateAsync(t *testing.T) {
	g, err := iabc.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	initial := clusterInitial(g.N())
	const maxRounds = 15
	opts := []iabc.Option{iabc.WithInitial(initial), iabc.WithMaxRounds(maxRounds)}

	want, err := iabc.Simulate(context.Background(), g, append(opts,
		iabc.WithEngine(iabc.Async), iabc.WithDelays(iabc.FixedDelay{D: 1}))...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := iabc.Cluster(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Final {
		if math.Float64bits(want.Final[i]) != math.Float64bits(got.Final[i]) {
			t.Errorf("final[%d]: cluster %v vs async engine %v", i, got.Final[i], want.Final[i])
		}
	}
	if got.Updates != int64(g.N()*maxRounds) {
		t.Errorf("updates = %d, want %d", got.Updates, g.N()*maxRounds)
	}
}

// TestClusterRunsE8 executes the paper's §7 experiment on the runtime users
// deploy: E8's run instances are option lists, and the lists E8 feeds to the
// deterministic Async engine go unchanged to the live cluster over the
// default in-process transport (WithDelays is ignored there). Every
// converging instance must reach ε with the fault-free finals inside the
// initial fault-free hull; the starvation instance — two silent nodes
// against f = 1 — must come back stalled.
func TestClusterRunsE8(t *testing.T) {
	runs, starved, err := experiments.E8Instances()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range runs {
		name := fmt.Sprintf("K%d/%s", in.G.N(), in.Adversary.Name())
		res, err := iabc.Cluster(context.Background(), in.G, append(in.Opts, iabc.WithStallAfter(10*time.Second))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Stalled || res.FinalRange > experiments.E8Epsilon {
			t.Errorf("%s: converged=%v stalled=%v final range=%g", name, res.Converged, res.Stalled, res.FinalRange)
		}
		faultFree := in.Faulty.Complement()
		lo, hi := math.Inf(1), math.Inf(-1)
		faultFree.ForEach(func(i int) bool {
			lo, hi = math.Min(lo, in.Initial[i]), math.Max(hi, in.Initial[i])
			return true
		})
		faultFree.ForEach(func(i int) bool {
			if v := res.Final[i]; v < lo || v > hi {
				t.Errorf("%s: node %d finished at %g, outside the initial hull [%g, %g]", name, i, v, lo, hi)
			}
			return true
		})
	}
	res, err := iabc.Cluster(context.Background(), starved.G, append(starved.Opts, iabc.WithStallAfter(300*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled || res.Converged {
		t.Errorf("starvation: stalled=%v converged=%v, want a stall", res.Stalled, res.Converged)
	}
}

// forgingTransport is a Byzantine in-neighbor at the message layer: ahead of
// the first real send it puts one extra message on the same link whose round
// tag lies far beyond any round the run will reach.
type forgingTransport struct {
	iabc.Transport
	once sync.Once
}

func (f *forgingTransport) Send(ctx context.Context, from, to int, m iabc.Msg) error {
	f.once.Do(func() {
		_ = f.Transport.Send(ctx, from, to, iabc.Msg{Round: 1 << 40, Value: 1e9, Seq: m.Seq})
	})
	return f.Transport.Send(ctx, from, to, m)
}

// TestClusterMatchesSequentialSimulate pins that the algorithm maps onto
// real message passing: at f = 0 the §7 quorum is the whole in-neighborhood,
// so the live cluster — goroutine actors over the in-process transport, and
// over loopback TCP with every node local — must finish with finals
// bit-identical to the synchronous Sequential engine. The graphs are not
// complete, so each node's in-neighbor order enters the sums. The forged
// variant adds one far-future-round delivery from a real in-neighbor, which
// the Stepper must drop without a trace.
func TestClusterMatchesSequentialSimulate(t *testing.T) {
	const maxRounds = 60
	chord, err := iabc.Chord(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	coreNet, err := iabc.CoreNetwork(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *iabc.Graph
	}{{"chord(9,2)", chord}, {"core(8,2)", coreNet}} {
		n := tc.g.N()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		opts := []iabc.Option{iabc.WithInitial(clusterInitial(n)), iabc.WithMaxRounds(maxRounds)}
		want, err := iabc.Simulate(context.Background(), tc.g, append(opts, iabc.WithEngine(iabc.Sequential))...)
		if err != nil {
			t.Fatal(err)
		}
		forging := &forgingTransport{Transport: iabc.NewInprocTransport(n, 0)}
		t.Cleanup(func() { forging.Close() })
		for _, tr := range []struct {
			name string
			opt  []iabc.Option
		}{
			{"inproc", nil},
			{"tcp", []iabc.Option{iabc.WithTCPTransport(tcpShards(t, [][]int{all})[0])}},
			{"inproc-forged-round", []iabc.Option{iabc.WithTransport(forging)}},
		} {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				got, err := iabc.Cluster(context.Background(), tc.g,
					append(append(opts, iabc.WithStallAfter(10*time.Second)), tr.opt...)...)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Final {
					if got.Rounds[i] != maxRounds {
						t.Errorf("node %d stopped at round %d, want %d", i, got.Rounds[i], maxRounds)
					}
					if math.Float64bits(want.Final[i]) != math.Float64bits(got.Final[i]) {
						t.Errorf("final[%d]: cluster %x vs sequential %x", i, got.Final[i], want.Final[i])
					}
				}
			})
		}
	}
}

// TestClusterChaosFacade runs a faulty cluster under WithChaos and asserts
// ε-convergence, the validity (hull) invariant on every streamed update,
// and that observer delivery is serialized.
func TestClusterChaosFacade(t *testing.T) {
	g, err := iabc.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	initial := clusterInitial(n)
	lo0, hi0 := math.Inf(1), math.Inf(-1)
	for i := 0; i < n-1; i++ { // node n-1 is faulty
		lo0, hi0 = math.Min(lo0, initial[i]), math.Max(hi0, initial[i])
	}

	var inObserver atomic.Int32
	var updates int64
	res, err := iabc.Cluster(context.Background(), g,
		iabc.WithInitial(initial),
		iabc.WithF(1), iabc.WithFaulty(n-1),
		iabc.WithAdversary(iabc.Extremes{Amplitude: 3}),
		iabc.WithEpsilon(1e-6), iabc.WithMaxRounds(80),
		iabc.WithResendEvery(2*time.Millisecond),
		iabc.WithStallAfter(3*time.Second),
		iabc.WithChaos(iabc.ChaosConfig{
			Seed: 11, Drop: 0.2, Dup: 0.1, MaxDelay: 2 * time.Millisecond,
		}),
		iabc.WithObserver(func(e iabc.Event) {
			if inObserver.Add(1) != 1 {
				t.Error("observer invoked concurrently")
			}
			defer inObserver.Add(-1)
			if e.Kind != iabc.EventNodeUpdate {
				t.Errorf("unexpected event kind %d", e.Kind)
				return
			}
			updates++
			if e.Value < lo0-1e-9 || e.Value > hi0+1e-9 {
				t.Errorf("node %d round %d: value %v outside initial hull [%v, %v]",
					e.Node, e.Round, e.Value, lo0, hi0)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence: stalled=%v finalRange=%v", res.Stalled, res.FinalRange)
	}
	if res.FinalRange > 1e-6 {
		t.Errorf("final range %v > epsilon", res.FinalRange)
	}
	if updates != res.Updates {
		t.Errorf("observer saw %d updates, result reports %d", updates, res.Updates)
	}
}

// TestClusterCallerOwnedTransport checks WithTransport semantics: the run
// uses the caller's chaos wrapper and leaves it open, so its fault counters
// can be inspected after the run.
func TestClusterCallerOwnedTransport(t *testing.T) {
	g, err := iabc.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	ch := iabc.NewChaosTransport(iabc.NewInprocTransport(g.N(), 0), iabc.ChaosConfig{
		Seed: 3, Drop: 0.1, MaxDelay: time.Millisecond,
	})
	defer ch.Close()
	res, err := iabc.Cluster(context.Background(), g,
		iabc.WithInitial(clusterInitial(g.N())),
		iabc.WithTransport(ch),
		iabc.WithEpsilon(1e-9), iabc.WithMaxRounds(60),
		iabc.WithResendEvery(2*time.Millisecond),
		iabc.WithStallAfter(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence: stalled=%v finalRange=%v", res.Stalled, res.FinalRange)
	}
	stats := ch.Stats()
	if stats.Sent == 0 {
		t.Error("caller-owned transport saw no traffic")
	}
	// Still open after the run: a send must not fail with ErrTransportClosed.
	if err := ch.Send(context.Background(), 0, 1, iabc.Msg{}); err != nil {
		t.Errorf("caller-owned transport closed by the run: %v", err)
	}
}

// TestClusterOptionErrors covers Cluster's option-level failure modes.
func TestClusterOptionErrors(t *testing.T) {
	g, err := iabc.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	initial := clusterInitial(g.N())

	_, err = iabc.Cluster(context.Background(), g,
		iabc.WithInitial(initial),
		iabc.WithTransport(iabc.NewInprocTransport(g.N(), 0)),
		iabc.WithChaos(iabc.ChaosConfig{Drop: 0.5}))
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("WithTransport+WithChaos: err = %v, want mutual-exclusion error", err)
	}

	_, err = iabc.Cluster(context.Background(), g, iabc.WithInitial(initial), iabc.WithTransport(nil))
	if err == nil || !strings.Contains(err.Error(), "WithTransport(nil)") {
		t.Errorf("WithTransport(nil): err = %v", err)
	}

	if _, err = iabc.Cluster(context.Background(), g); err == nil {
		t.Error("missing WithInitial: want validation error")
	}

	_, err = iabc.Cluster(context.Background(), g,
		iabc.WithInitial(initial), iabc.WithFaulty(0))
	if err == nil || !strings.Contains(err.Error(), "Adversary") {
		t.Errorf("faulty without adversary: err = %v", err)
	}
}
