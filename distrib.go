package iabc

// The facade's distributed arm: WithCoordinator / WithWorkerPool route
// Check, MaxF, and Sweep through internal/distrib's coordinator–worker job
// protocol, and Work is the worker entry point remote processes call to
// join. The contract mirrors WithWorkers: results are bit-identical to the
// single-process run at any worker count — and, here, under any schedule of
// worker crashes and lease re-executions.

import (
	"context"

	"iabc/internal/distrib"
)

// Work joins the coordinator listening at addr (see WithCoordinator or
// `iabc coordinate`) and processes jobs until the coordinator finishes —
// a clean nil return — or ctx is canceled. Workers are stateless: any
// number may join, leave, or crash without affecting results.
func Work(ctx context.Context, addr string) error {
	return distrib.Work(ctx, addr, distrib.WorkerOptions{})
}

// distributed reports whether the call should run through a coordinator.
func (c *config) distributed() bool { return c.coordAddr != "" || c.workerPool > 0 }

// startCoordinator binds the call's coordinator and starts the local worker
// pool, whose workers share one spec cache: a pooled scan builds its orbit
// table once. The returned stop func tears both down; it is safe to call after
// the work completed or failed.
func (c *config) startCoordinator() (*distrib.Coordinator, func(), error) {
	addr := c.coordAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	coord := distrib.NewCoordinator(distrib.Options{})
	if err := coord.Listen(addr); err != nil {
		return nil, nil, err
	}
	wctx, cancel := context.WithCancel(context.Background())
	pool := make(chan struct{})
	go func() {
		defer close(pool)
		distrib.WorkPool(wctx, coord.Addr(), c.workerPool, distrib.WorkerOptions{})
	}()
	stop := func() {
		coord.Close()
		cancel()
		<-pool
	}
	return coord, stop, nil
}

// emitCoordinatorEvent reports the scheduling summary once the work is done.
func emitCoordinatorEvent(obs Observer, coord *distrib.Coordinator) {
	if obs == nil {
		return
	}
	s := coord.Stats()
	obs(Event{Kind: EventCoordinator, Name: coord.Addr(), Done: s.JobsGranted, Total: s.WorkersSeen})
}
