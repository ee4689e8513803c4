// Package instr is the single instrumentation seam of the simulated
// platforms. A Hooks bundle carries the three per-deployment hooks —
// the span tracer, the chaos injector and the windowed timeline — and
// every service of one deployment holds the same *Hooks, handed over at
// construction. Services read their hooks through the bundle at each
// use, so filling a field reaches every service at once, whether it was
// built before or after: there is nothing to propagate and no
// call-before-deploy ordering to remember.
//
// A zero Hooks is the disabled fast path: the tracer, injector and
// series are all nil-safe, so each instrumented point costs one
// predictable branch. Services built on a bare kernel (unit tests,
// standalone commands) pass &Hooks{}.
package instr

import (
	"statebench/internal/chaos"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
)

// Hooks is one deployment's instrumentation bundle. Like the services
// that share it, a Hooks belongs to one kernel goroutine.
type Hooks struct {
	// Tracer, when non-nil, receives spans from every service.
	Tracer *span.Tracer
	// Chaos, when non-nil, is consulted at every fault-injection site.
	Chaos *chaos.Injector
	// Timeline, when non-nil, receives per-window occupancy gauges
	// (warm pools, dispatch-queue depth).
	Timeline *tseries.Series
}
