package iabc

// EventKind discriminates the progress events an Observer receives.
type EventKind int

const (
	// EventRound reports one completed simulation step: a synchronous round
	// (Round, Range; Round 0 is the initial condition) or an asynchronous
	// fault-free state change (Time, Range).
	EventRound EventKind = iota
	// EventScenarioDone reports one completed sweep scenario (Scenario,
	// Name, Round = rounds executed, Range = final fault-free range).
	EventScenarioDone
	// EventCheckProgress reports exact-checker progress (F, Done =
	// fault sets processed, Total = full extent).
	EventCheckProgress
	// EventCheckDone reports one completed check of a MaxF scan (F,
	// Satisfied), a check served from the verdict cache included.
	EventCheckDone
	// EventNodeUpdate reports one fault-free state change in a cluster run
	// (Node, Round = the node's new round counter, Value = its new
	// estimate, Range = fault-free range after the change).
	EventNodeUpdate
	// EventCoordinator summarizes a distributed call's scheduling after the
	// work completes (Name = the coordinator's listen address, or
	// "in-process" for a worker pool without WithCoordinator, which binds no
	// port; Done = jobs granted, Total = workers that joined).
	EventCoordinator
)

// Event is one streaming progress report. Only the fields documented for
// the respective Kind are meaningful.
type Event struct {
	Kind EventKind
	// Round is the completed round (EventRound, synchronous) or the rounds
	// a scenario executed (EventScenarioDone).
	Round int
	// Range is the fault-free range U−µ after the step or scenario.
	Range float64
	// Time is the simulation time of an asynchronous state change
	// (EventRound from the Async engine).
	Time float64
	// Scenario is the completed scenario's index (EventScenarioDone).
	Scenario int
	// Name is the completed scenario's resolved name (EventScenarioDone).
	Name string
	// F is the fault-tolerance parameter being checked (EventCheckProgress,
	// EventCheckDone).
	F int
	// Satisfied is the completed check's verdict (EventCheckDone).
	Satisfied bool
	// Done and Total count processed vs. expected fault sets
	// (EventCheckProgress).
	Done, Total int64
	// Node is the node whose state changed (EventNodeUpdate).
	Node int
	// Value is the node's new estimate (EventNodeUpdate).
	Value float64
}

// Observer receives streaming progress events from Simulate, Sweep, Check,
// MaxF, and Cluster — progress without waiting for (or materializing) the
// result.
// Events are delivered synchronously from the hot coordinators, serialized
// by the facade even when the work runs on multiple goroutines, so the
// callback must be fast; a slow observer slows the run.
type Observer func(Event)
