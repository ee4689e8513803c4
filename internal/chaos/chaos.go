// Package chaos is a deterministic, seed-driven fault injector for the
// simulated platforms. A Plan declares fault rules keyed by component,
// resource name, and invocation index; an Injector evaluates them at
// instrumented points inside the Lambda service, the SFN interpreter,
// the storage queue, the Azure Functions host, and the Durable task
// hub. Faults model the failure classes the real platforms are built
// to survive — transient function errors, container crashes, timeout
// spikes, at-least-once queue delivery (visibility-timeout redelivery,
// duplicates, poison-message dead-lettering), and orchestrator host
// crashes before and after history persistence.
//
// Determinism contract:
//
//   - Fault decisions are stateless hashes, not RNG draws. Each
//     (component, name) pair keeps an invocation counter; the decision
//     for invocation i under rule r is a splitmix64-style hash of
//     (kernel seed ^ plan salt, component/name, r, i). Two runs with
//     the same seed and plan therefore inject byte-identical fault
//     schedules, and faults on one component never perturb another
//     component's schedule (there is no shared random sequence).
//   - The injector draws nothing from the kernel's named RNG streams
//     except a single seed derivation at construction, so enabling
//     chaos does not shift any existing component's variates.
//   - An Injector belongs to one Env/Kernel and is only used from that
//     kernel's goroutine; it needs no locking.
//
// Disabled fast path: services read their `*Injector` from the
// deployment's instr.Hooks bundle, where it stays nil unless
// core.Env.EnableChaos was called. Every method is nil-safe, so the
// disabled path costs one predictable branch and zero allocations.
package chaos

import (
	"fmt"
	"time"

	"statebench/internal/obs/metrics"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/sim"
)

// Kind classifies an injected fault.
type Kind string

const (
	// TransientError fails the invocation after partial execution; the
	// platform surface is an ordinary handler error (retriable).
	TransientError Kind = "transient-error"
	// Crash kills the executing container/host mid-invocation: partial
	// execution is billed, the warm container is lost, and on queue-fed
	// platforms the in-flight work item is redelivered.
	Crash Kind = "crash"
	// CrashAfterPersist crashes a Durable orchestrator episode after its
	// new history events are persisted and actions dispatched, but
	// before the triggering queue messages are acknowledged — the
	// crash window that forces replay to deduplicate.
	CrashAfterPersist Kind = "crash-after-persist"
	// TimeoutSpike stretches an invocation by Delay, which may push it
	// over the function's configured timeout.
	TimeoutSpike Kind = "timeout-spike"
	// Redeliver drops a queue delivery (consumer crashed before
	// acknowledging); the message reappears after the visibility
	// timeout, or dead-letters once MaxDequeueCount is exhausted.
	Redeliver Kind = "redeliver"
	// Duplicate delivers a queue message normally and redelivers a
	// ghost copy after the visibility timeout — at-least-once
	// semantics as consumers actually observe them.
	Duplicate Kind = "duplicate"
)

// Rule is one fault clause in a Plan. Empty Component or Name matches
// any component or resource.
type Rule struct {
	// Component selects an injection site: "lambda", "sfn", "queue",
	// "azfunc", "durable", "netherite" (commit-batch loss), or
	// "netherite-transport" (duplicate ghost deliveries). "" matches all.
	Component string
	// Name selects a resource (function, queue, state, orchestrator)
	// within the component. "" matches all.
	Name string
	// Kind is the fault to inject when the rule fires.
	Kind Kind
	// Rate is the per-invocation firing probability in [0, 1].
	Rate float64
	// Delay is the fault magnitude: partial execution before a
	// TransientError/Crash, or the added latency of a TimeoutSpike.
	// Zero selects a per-kind default.
	Delay time.Duration
	// MaxFaults caps how many times the rule may fire; 0 = unlimited.
	MaxFaults int
	// After skips the first After invocations of each matching
	// (component, name) pair before the rule becomes eligible.
	After int64
}

// Plan is a complete fault schedule. The zero value injects nothing.
type Plan struct {
	// Salt perturbs every decision hash, so two plans with identical
	// rules but different salts produce independent fault schedules
	// under the same kernel seed.
	Salt uint64
	// RedeliveryDelay is how long a crashed Durable episode's messages
	// stay invisible before redelivery (the control-queue visibility
	// timeout). Zero defaults to 30s.
	RedeliveryDelay time.Duration
	// Rules are evaluated in order; the first rule that fires wins.
	Rules []Rule
}

// DefaultPlan is the schedule used by the reliability and crosscloud
// experiments and the `statebench chaos` subcommand: rate-R transient
// errors on every Lambda function and SFN task, host recycles on Azure
// Functions, duplicate deliveries on every storage queue, Durable
// episode crashes on both sides of history persistence, and transient
// errors on GCP Cloud Functions and Workflows call steps. All kinds
// chosen here are liveness-safe: every fault is recoverable by the
// platform's own retry/replay/redelivery machinery, so workflows
// always terminate.
//
// New providers' sites are appended after the existing rules, never
// inserted: decisions hash (component, name, rule index), so appending
// leaves the schedules of earlier components bit-identical.
func DefaultPlan(rate float64) *Plan {
	return &Plan{
		RedeliveryDelay: 30 * time.Second,
		Rules: []Rule{
			{Component: "lambda", Kind: TransientError, Rate: rate},
			{Component: "sfn", Kind: TransientError, Rate: rate},
			{Component: "azfunc", Kind: Crash, Rate: rate},
			{Component: "queue", Kind: Duplicate, Rate: rate},
			{Component: "durable", Kind: Crash, Rate: rate / 2},
			{Component: "durable", Kind: CrashAfterPersist, Rate: rate / 2},
			{Component: "gcf", Kind: TransientError, Rate: rate},
			{Component: "gwf", Kind: TransientError, Rate: rate},
			{Component: "netherite", Kind: Crash, Rate: rate / 2},
			{Component: "netherite", Kind: CrashAfterPersist, Rate: rate / 2},
			{Component: "netherite-transport", Kind: Duplicate, Rate: rate},
		},
	}
}

// Fault is one injected fault decision returned by Next.
type Fault struct {
	Kind  Kind
	Delay time.Duration
}

// Event records one injected fault for reliability reporting.
type Event struct {
	At        sim.Time
	Component string
	Name      string
	Index     int64
	Kind      Kind
}

// Stats aggregates injector activity over a campaign.
type Stats struct {
	// Injected is the total number of faults injected (all kinds).
	Injected int64
	// Per-kind injection counts. CrashAfterPersist counts into Crashes.
	TransientErrors int64
	Crashes         int64
	TimeoutSpikes   int64
	Redeliveries    int64
	Duplicates      int64
	// DeadLetters counts poison messages moved to a dead-letter queue.
	DeadLetters int64
	// Retries counts platform-level retries observed in response to
	// faults (SFN Retry policy firings).
	Retries int64
	// Redispatches counts work items re-queued after a host crash.
	Redispatches int64
	// RecoveryDelay is total added virtual time spent waiting on
	// recovery: retry backoff, visibility timeouts, redelivery delays.
	RecoveryDelay time.Duration
	// WastedWork counts speculative history records discarded because a
	// crash lost their uncommitted batch (Netherite-style speculation:
	// the episode's work was real, billed, and thrown away).
	WastedWork int64
}

// FaultError is the error surfaced by an injected invocation fault.
// The SFN interpreter maps it — like any non-ASL error — to
// "States.TaskFailed", so injected faults drive the Retry/Catch
// machinery exactly as real task failures do.
type FaultError struct {
	Kind      Kind
	Component string
	Name      string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected %s in %s/%s", e.Kind, e.Component, e.Name)
}

// Injector evaluates a Plan at instrumented points. Construct with
// NewInjector; a nil *Injector is valid and injects nothing.
type Injector struct {
	k      *sim.Kernel
	plan   Plan
	seed   uint64
	counts map[string]int64 // per component/name invocation index
	fired  []int64          // per-rule firing count (MaxFaults)
	stats  Stats
	events []Event

	// Tracer, when non-nil, receives a zero-length span.KindFault span
	// per injected fault, annotated onto the victim's trace.
	Tracer *span.Tracer
	// Metrics, when non-nil, counts faults per component and kind.
	Metrics *metrics.Registry
	// Timeline, when non-nil, books each injected fault into its
	// virtual-time window. Fed here rather than via the fault span so
	// windowed fault counts work with tracing off and are never doubled.
	Timeline *tseries.Series
}

// NewInjector builds an injector for plan on kernel k. Returns nil for
// a nil plan, which is the disabled fast path everywhere downstream.
func NewInjector(k *sim.Kernel, plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	p := *plan
	if p.RedeliveryDelay <= 0 {
		p.RedeliveryDelay = 30 * time.Second
	}
	// One named-stream draw derives the decision seed; no further
	// randomness is consumed, so other components' streams are
	// untouched whether or not chaos is enabled.
	return &Injector{
		k:      k,
		plan:   p,
		seed:   k.Stream("chaos/injector").Uint64() ^ p.Salt,
		counts: make(map[string]int64),
		fired:  make([]int64, len(p.Rules)),
	}
}

// Enabled reports whether the injector can inject faults.
func (in *Injector) Enabled() bool { return in != nil && len(in.plan.Rules) > 0 }

// RedeliveryDelay is the plan's crash-redelivery visibility timeout.
func (in *Injector) RedeliveryDelay() time.Duration {
	if in == nil {
		return 0
	}
	return in.plan.RedeliveryDelay
}

// fnv64 hashes a string with FNV-1a, matching sim.Kernel.Stream's
// name-derivation so component/name keys mix with the same quality.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer (same mixer as internal/sim).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// decide returns a uniform [0,1) value that depends only on the
// injector seed, the (component, name) key hash, the rule index, and
// the invocation index — a stateless draw, so decisions for one site
// never shift another site's schedule.
func (in *Injector) decide(nameKey uint64, rule int, idx int64) float64 {
	z := mix64(in.seed ^ nameKey)
	z = mix64(z ^ uint64(rule)*0x9e3779b97f4a7c15)
	z = mix64(z ^ uint64(idx))
	return float64(z>>11) / (1 << 53)
}

// defaultDelay is the per-kind fault magnitude when Rule.Delay is 0.
func defaultDelay(k Kind) time.Duration {
	switch k {
	case TransientError:
		return 10 * time.Millisecond
	case Crash:
		return 25 * time.Millisecond
	case TimeoutSpike:
		return 1 * time.Second
	default:
		return 0
	}
}

// Next advances the invocation counter for (component, name) and
// returns the fault to inject, if any rule fires. ctx is the victim's
// trace context, used to annotate the fault onto its trace.
func (in *Injector) Next(ctx sim.TraceContext, component, name string) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	key := component + "/" + name
	idx := in.counts[key]
	in.counts[key] = idx + 1
	for ri := range in.plan.Rules {
		r := &in.plan.Rules[ri]
		if r.Component != "" && r.Component != component {
			continue
		}
		if r.Name != "" && r.Name != name {
			continue
		}
		if idx < r.After {
			continue
		}
		if r.MaxFaults > 0 && in.fired[ri] >= int64(r.MaxFaults) {
			continue
		}
		if in.decide(fnv64(key), ri, idx) >= r.Rate {
			continue
		}
		in.fired[ri]++
		d := r.Delay
		if d == 0 {
			d = defaultDelay(r.Kind)
		}
		in.record(ctx, component, name, idx, r.Kind)
		return Fault{Kind: r.Kind, Delay: d}, true
	}
	return Fault{}, false
}

// record books an injected fault: stats, event log, trace annotation,
// and the metrics counter.
func (in *Injector) record(ctx sim.TraceContext, component, name string, idx int64, k Kind) {
	in.stats.Injected++
	switch k {
	case TransientError:
		in.stats.TransientErrors++
	case Crash, CrashAfterPersist:
		in.stats.Crashes++
	case TimeoutSpike:
		in.stats.TimeoutSpikes++
	case Redeliver:
		in.stats.Redeliveries++
	case Duplicate:
		in.stats.Duplicates++
	}
	now := in.k.Now()
	in.events = append(in.events, Event{At: now, Component: component, Name: name, Index: idx, Kind: k})
	in.Timeline.AddFault(now)
	if in.Tracer.Enabled() {
		in.Tracer.Emit(span.KindFault, "chaos/"+component+"/"+name, now, now, ctx,
			span.A("fault", string(k)))
	}
	in.Metrics.Inc("statebench_chaos_faults_total", 1,
		metrics.L("component", component), metrics.L("kind", string(k)))
}

// NoteRetry books one platform retry triggered downstream of a fault,
// plus the backoff delay it added.
func (in *Injector) NoteRetry(backoff time.Duration) {
	if in == nil {
		return
	}
	in.stats.Retries++
	in.stats.RecoveryDelay += backoff
	in.Metrics.Inc("statebench_chaos_retries_total", 1)
}

// NoteRedispatch books one work item re-queued after a host crash.
func (in *Injector) NoteRedispatch() {
	if in == nil {
		return
	}
	in.stats.Redispatches++
}

// NoteDeadLetter books one poison message moved to a dead-letter
// queue, annotated onto the message's trace.
func (in *Injector) NoteDeadLetter(ctx sim.TraceContext, name string) {
	if in == nil {
		return
	}
	in.stats.DeadLetters++
	now := in.k.Now()
	if in.Tracer.Enabled() {
		in.Tracer.Emit(span.KindFault, "deadletter/"+name, now, now, ctx)
	}
	in.Metrics.Inc("statebench_chaos_deadletters_total", 1, metrics.L("queue", name))
}

// NoteWastedWork books n speculative history records discarded because
// a crash lost their uncommitted batch.
func (in *Injector) NoteWastedWork(n int) {
	if in == nil {
		return
	}
	in.stats.WastedWork += int64(n)
	in.Metrics.Inc("statebench_chaos_wasted_speculation_total", float64(n))
}

// NoteRecovery books added virtual time spent waiting on recovery
// (visibility timeout, redelivery delay).
func (in *Injector) NoteRecovery(d time.Duration) {
	if in == nil {
		return
	}
	in.stats.RecoveryDelay += d
}

// Stats returns the accumulated injector statistics.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Events returns the injected-fault log in injection order. The slice
// is owned by the injector; callers must not mutate it.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	return in.events
}
