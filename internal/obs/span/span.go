// Package span is a deterministic, virtual-time span tracer for the
// simulated platforms — the simulation's analogue of AWS X-Ray and
// Azure Application Insights, which the paper relied on to attribute
// workflow latency to queueing, cold starts, and execution.
//
// Spans carry parent/child causality across every layer: Lambda invokes
// and cold starts, Step Functions state transitions, the Azure Functions
// host, storage-queue hops, Durable orchestrator episodes, entity
// operations, and workload stages. core.Measure opens a root span per
// run and derives queue/exec/cold breakdowns from the span tree
// (Breakdown, breakdown.go), cross-checked against the snapshot-delta
// numbers it already computes.
//
// Determinism contract:
//
//   - All timestamps are virtual (kernel) time; span IDs are allocated
//     sequentially in kernel execution order. For a fixed seed the
//     emitted span stream is identical run-to-run.
//   - Instrumentation never sleeps, never samples an RNG stream, and
//     never alters control flow, so simulation results are byte-identical
//     with tracing on or off (enforced by determinism_test.go).
//   - A Tracer belongs to one Env/Kernel and is used only from that
//     kernel's goroutines (one at a time), so it needs no locking.
//
// Disabled fast path: every method is nil-safe. Services read their
// `*Tracer` from the deployment's instr.Hooks bundle, where it stays
// nil unless core.Env.EnableTracing was called; the nil receiver
// short-circuits before any allocation, so hot paths pay one
// predictable branch and zero allocations per would-be span.
package span

import (
	"time"

	"statebench/internal/sim"
)

// Kind classifies a span for breakdown derivation and display.
type Kind string

const (
	// KindRun is the per-iteration root opened by core.Measure.
	KindRun Kind = "run"
	// KindInvoke wraps one full Lambda invocation (RTT to return).
	KindInvoke Kind = "invoke"
	// KindQueue is time spent waiting to be scheduled: Lambda burst
	// admission, Azure host scheduling delay, SFN task dispatch.
	KindQueue Kind = "queue"
	// KindHop is a storage-queue message in flight, enqueue→dequeue.
	KindHop Kind = "hop"
	// KindCold is container/app cold-start provisioning time.
	KindCold Kind = "coldstart"
	// KindExec is billed handler execution time.
	KindExec Kind = "exec"
	// KindTransition is a Step Functions state-machine transition or
	// task dispatch.
	KindTransition Kind = "transition"
	// KindOrchestration spans a whole SFN execution or Durable
	// orchestration, start to completion.
	KindOrchestration Kind = "orchestration"
	// KindEpisode is one Durable orchestrator episode (history replay +
	// user code until it blocks).
	KindEpisode Kind = "episode"
	// KindEntityOp is one Durable entity operation (signal or call).
	KindEntityOp Kind = "entityop"
	// KindStage is an application-level workload stage (ML pipeline
	// step, video split/detect/merge) inside a handler.
	KindStage Kind = "stage"
	// KindFault is a zero-length annotation marking an injected chaos
	// fault (internal/chaos) on the victim's trace.
	KindFault Kind = "fault"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one completed operation in virtual time. Parent is the
// SpanID of the enclosing span (0 for roots); TraceID groups all spans
// of one end-to-end run.
type Span struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64
	Name    string
	Kind    Kind
	Start   time.Duration
	End     time.Duration
	Attrs   []Attr
}

// Duration returns the span's elapsed virtual time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// MetricsSink receives one notification per finished span. Implemented
// by internal/obs/metrics (wired up in core.Env) without this package
// depending on it.
type MetricsSink interface {
	// SpanFinished is called once per emitted span with its kind, name
	// and duration in seconds.
	SpanFinished(kind, name string, seconds float64)
}

// WindowSink receives one notification per finished span, with virtual
// start/end times, for windowed (time-series) telemetry. Implemented by
// internal/obs/tseries (wired up in core.Env) without this package
// depending on it.
type WindowSink interface {
	// SpanWindowed is called once per emitted span with its kind, name,
	// and virtual start/end times.
	SpanWindowed(kind, name string, start, end time.Duration)
}

// Tracer collects spans for one Env. A nil *Tracer is valid and makes
// every operation a no-op — the disabled fast path.
type Tracer struct {
	nextID uint64
	spans  []Span

	// Metrics, when non-nil, is fed one observation per finished span.
	Metrics MetricsSink

	// Windows, when non-nil, is fed each finished span's virtual time
	// range for per-window telemetry.
	Windows WindowSink
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of spans emitted so far. It doubles as a
// watermark for Since.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns all emitted spans in emit order. The slice is owned by
// the tracer; callers must not mutate it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Since returns the spans emitted after the watermark mark (a prior
// Len() result).
func (t *Tracer) Since(mark int) []Span {
	if t == nil || mark >= len(t.spans) {
		return nil
	}
	return t.spans[mark:]
}

// Trace returns the spans belonging to traceID, in emit order.
func (t *Tracer) Trace(traceID uint64) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, s := range t.spans {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// Reset drops all recorded spans (ID allocation continues, so span IDs
// stay unique across a reset).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans = t.spans[:0]
}

// StartTrace opens a new root span under a fresh trace ID and returns
// its handle. Used by core.Measure for the per-run root.
func (t *Tracer) StartTrace(now time.Duration, kind Kind, name string) Active {
	if t == nil {
		return Active{}
	}
	t.nextID++
	id := t.nextID
	return Active{t: t, s: Span{TraceID: id, SpanID: id, Name: name, Kind: kind, Start: now}}
}

// Start opens a child span of parent. A zero parent context yields an
// orphan span with TraceID 0 (e.g. idle queue polls outside any run),
// which exporters group under trace 0.
func (t *Tracer) Start(now time.Duration, kind Kind, name string, parent sim.TraceContext) Active {
	if t == nil {
		return Active{}
	}
	t.nextID++
	return Active{t: t, s: Span{
		TraceID: parent.TraceID,
		SpanID:  t.nextID,
		Parent:  parent.SpanID,
		Name:    name,
		Kind:    kind,
		Start:   now,
	}}
}

// Emit records a span retroactively, for operations whose start time is
// only known in hindsight — e.g. a queue hop is emitted at dequeue with
// start = the message's enqueue time.
func (t *Tracer) Emit(kind Kind, name string, start, end time.Duration, parent sim.TraceContext, attrs ...Attr) {
	if t == nil {
		return
	}
	t.nextID++
	t.emit(Span{
		TraceID: parent.TraceID,
		SpanID:  t.nextID,
		Parent:  parent.SpanID,
		Name:    name,
		Kind:    kind,
		Start:   start,
		End:     end,
		Attrs:   attrs,
	})
}

func (t *Tracer) emit(s Span) {
	t.spans = append(t.spans, s)
	if t.Metrics != nil {
		t.Metrics.SpanFinished(string(s.Kind), s.Name, s.Duration().Seconds())
	}
	if t.Windows != nil {
		t.Windows.SpanWindowed(string(s.Kind), s.Name, s.Start, s.End)
	}
}

// Active is a started, not-yet-finished span. It is a value type so the
// disabled path (zero Active from a nil tracer) allocates nothing.
type Active struct {
	t *Tracer
	s Span
}

// Live reports whether the handle belongs to an enabled tracer.
func (a Active) Live() bool { return a.t != nil }

// Context returns the trace context to propagate to child operations
// (zero when tracing is disabled).
func (a Active) Context() sim.TraceContext {
	return sim.TraceContext{TraceID: a.s.TraceID, SpanID: a.s.SpanID}
}

// Annotate attaches attributes to the span before it ends — a
// zero-cost bookkeeping write, consuming no virtual time. No-op on a
// disabled handle; callers should guard attr construction on Live()
// to keep the disabled path allocation-free.
func (a *Active) Annotate(attrs ...Attr) {
	if a.t == nil {
		return
	}
	a.s.Attrs = append(a.s.Attrs, attrs...)
}

// End finishes the span at now and records it, with optional
// annotations. No-op on a disabled handle. Callers that build attrs
// should guard on Live() to keep the disabled path allocation-free.
func (a Active) End(now time.Duration, attrs ...Attr) {
	if a.t == nil {
		return
	}
	a.s.End = now
	if len(attrs) > 0 {
		a.s.Attrs = append(a.s.Attrs, attrs...)
	}
	a.t.emit(a.s)
}
