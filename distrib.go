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

// startCoordinator starts the call's coordinator — listening only with
// WithCoordinator — and its local worker pool, which joins over in-memory
// connections and shares one spec cache: a pooled scan builds its orbit
// table once. The returned stop func tears both down; it is safe to call
// after the work completed or failed.
func (c *config) startCoordinator() (*distrib.Coordinator, func(), error) {
	coord := distrib.NewCoordinator(distrib.Options{})
	if c.coordAddr != "" {
		if err := coord.Listen(c.coordAddr); err != nil {
			return nil, nil, err
		}
	}
	wctx, cancel := context.WithCancel(context.Background())
	pool := make(chan struct{})
	go func() {
		defer close(pool)
		coord.RunPool(wctx, c.workerPool)
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
	name := coord.Addr()
	if name == "" {
		name = "in-process"
	}
	s := coord.Stats()
	obs(Event{Kind: EventCoordinator, Name: name, Done: s.JobsGranted, Total: s.WorkersSeen})
}
