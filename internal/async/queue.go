package async

// eventPQ is the engine's pending-event priority queue: pop returns the
// event with the smallest (at, seq) — earliest simulation time, FIFO among
// simultaneous events (seq is the global push counter). The production
// implementation is calendarQueue (O(1) amortized, allocation-free in steady
// state); the tests substitute a container/heap-backed reference through
// this interface and replay runs against it.
type eventPQ interface {
	push(e event)
	pop() (event, bool)
	len() int
}

// eventLess is the total order both queues dequeue in: simulation time,
// then push sequence. It is the exact Less the original heap used, so the
// calendar queue's delivery order is pinned to the historical contract.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
