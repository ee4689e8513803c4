// Package gcp assembles the third simulated provider: Cloud Functions
// (gen 1) with per-request instance scaling, a Workflows-style
// code-first orchestrator on top of them, and a GCS-like object store.
// GCP is not part of the paper's measurement — it exists to prove the
// provider-registry seam: the package registers itself with core from
// init and is never imported by core, pricing, or the experiment
// drivers' paper figures.
package gcp

import (
	"fmt"
	"sort"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs/instr"
	"statebench/internal/obs/span"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// Handler is the user function body, mirroring the Lambda contract:
// compute is modeled by ctx.Busy and I/O by calling simulated services
// with ctx.Proc().
type Handler func(ctx *Context, payload []byte) ([]byte, error)

// Context is passed to handlers.
type Context struct {
	p  *sim.Proc
	fn *Function
}

// Proc returns the simulation process executing this invocation.
func (c *Context) Proc() *sim.Proc { return c.p }

// Busy consumes d of virtual compute time.
func (c *Context) Busy(d time.Duration) { c.p.Sleep(d) }

// FunctionName returns the executing function's name.
func (c *Context) FunctionName() string { return c.fn.cfg.Name }

// MemoryMB returns the configured memory tier.
func (c *Context) MemoryMB() int { return c.fn.cfg.MemoryMB }

// Config describes one Cloud Function.
type Config struct {
	Name string
	// MemoryMB is the configured memory; must be one of the platform's
	// fixed tiers. Billing uses this value (GB-s plus the tier's
	// proportional GHz-s, applied by the price book).
	MemoryMB int
	// ConsumedMemMB models actually-used memory (reported, not billed).
	ConsumedMemMB int
	// CodeSizeMB is the source/deployment size; it lengthens cold starts.
	CodeSizeMB float64
	// Timeout overrides the platform execution cap if smaller.
	Timeout time.Duration
	Handler Handler
}

// Invocation reports one completed invoke.
type Invocation struct {
	Output         []byte
	Cold           bool
	ColdStartDelay time.Duration
	// QueueDelay is time spent waiting for burst-concurrency capacity.
	QueueDelay time.Duration
	// ExecTime is handler wall time (billed after rounding).
	ExecTime time.Duration
	// Total is RTT + start + queue + exec.
	Total time.Duration
	Err   error
}

// Stats aggregates per-function invoke outcomes.
type Stats struct {
	Invokes    int64
	ColdStarts int64
	Errors     int64
	ColdDelays []time.Duration
}

// Function is a registered Cloud Function. Like Lambda, instance
// lifecycle (warm reuse, keep-alive expiry, cold-start stats) lives in
// the shared platform.Pool; this package keeps the per-request scaling
// policy.
type Function struct {
	cfg   Config
	svc   *Functions
	pool  platform.Pool
	slots *sim.Resource
	Meter platform.Meter
	stats Stats
}

// Stats returns a snapshot of invoke outcomes, merging the function's
// invoke counters with the instance pool's cold-start statistics.
func (f *Function) Stats() Stats {
	s := f.stats
	ps := f.pool.Stats()
	s.ColdStarts = ps.ColdStarts
	s.ColdDelays = ps.ColdDelays
	return s
}

// Config returns the function's configuration.
func (f *Function) Config() Config { return f.cfg }

// WarmInstances returns how many idle warm instances exist now.
func (f *Function) WarmInstances(now sim.Time) int { return f.pool.WarmCount(now) }

// Functions is the simulated Cloud Functions control plane.
type Functions struct {
	k      *sim.Kernel
	rng    *sim.RNG
	params platform.GCPParams
	fns    map[string]*Function
	// hooks is the deployment's instrumentation bundle: its tracer gets
	// spans per invocation; its injector can fail invocations with
	// transient errors or kill the executing instance mid-invoke
	// (component "gcf"); its timeline gets every function's warm-pool
	// occupancy.
	hooks *instr.Hooks
}

// NewFunctions creates a Cloud Functions service instrumented through
// hooks.
func NewFunctions(k *sim.Kernel, params platform.GCPParams, hooks *instr.Hooks) *Functions {
	return &Functions{k: k, rng: k.Stream("gcp/functions"), params: params, fns: make(map[string]*Function), hooks: hooks}
}

// Params returns the service's calibration parameters.
func (s *Functions) Params() platform.GCPParams { return s.params }

// Register adds a function, validating the memory tier.
func (s *Functions) Register(cfg Config) (*Function, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("gcf: function name required")
	}
	if _, dup := s.fns[cfg.Name]; dup {
		return nil, fmt.Errorf("gcf: function %q already registered", cfg.Name)
	}
	if !validTier(s.params.MemoryTiersMB, cfg.MemoryMB) {
		return nil, fmt.Errorf("gcf: memory %d MB is not a configurable tier %v", cfg.MemoryMB, s.params.MemoryTiersMB)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("gcf: function %q has no handler", cfg.Name)
	}
	if cfg.ConsumedMemMB <= 0 {
		cfg.ConsumedMemMB = cfg.MemoryMB
	}
	if cfg.Timeout <= 0 || cfg.Timeout > s.params.TimeLimit {
		cfg.Timeout = s.params.TimeLimit
	}
	f := &Function{cfg: cfg, svc: s, slots: sim.NewResource(s.k, s.params.BurstConcurrency)}
	f.pool.KeepAlive = s.params.KeepAlive
	f.pool.Hooks = s.hooks
	s.fns[cfg.Name] = f
	return f, nil
}

// validTier reports whether memMB is one of the configurable tiers.
func validTier(tiers []int, memMB int) bool {
	for _, t := range tiers {
		if t == memMB {
			return true
		}
	}
	return false
}

// Function returns a registered function by name.
func (s *Functions) Function(name string) (*Function, bool) {
	f, ok := s.fns[name]
	return f, ok
}

// TimeoutError reports an execution that exceeded its time limit.
type TimeoutError struct {
	Function string
	Limit    time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("gcf: %s timed out after %v", e.Function, e.Limit)
}

// PayloadTooLargeError reports an oversized request body.
type PayloadTooLargeError struct {
	Function string
	Size     int
	Limit    int
}

func (e *PayloadTooLargeError) Error() string {
	return fmt.Sprintf("gcf: payload for %s is %d bytes, limit %d", e.Function, e.Size, e.Limit)
}

// Invoke synchronously invokes a function from process p. Handler
// errors are reported in Invocation.Err (timing still carried);
// infrastructure errors are returned as err.
func (s *Functions) Invoke(p *sim.Proc, name string, payload []byte) (*Invocation, error) {
	f, ok := s.fns[name]
	if !ok {
		return nil, fmt.Errorf("gcf: no such function %q", name)
	}
	if s.params.PayloadLimit > 0 && len(payload) > s.params.PayloadLimit {
		return nil, &PayloadTooLargeError{Function: name, Size: len(payload), Limit: s.params.PayloadLimit}
	}
	start := p.Now()
	caller := p.TraceCtx
	invSpan := s.hooks.Tracer.Start(start, span.KindInvoke, "gcf/"+name, caller)
	invCtx := invSpan.Context()
	p.Sleep(s.params.InvokeRTT.Sample(s.rng))

	qStart := p.Now()
	f.slots.Acquire(p)
	queueDelay := p.Now() - qStart
	if queueDelay > 0 {
		s.hooks.Tracer.Emit(span.KindQueue, "gcf/admission/"+name, qStart, p.Now(), invCtx)
	}

	inv := &Invocation{QueueDelay: queueDelay}
	f.stats.Invokes++

	if _, ok := f.pool.TakeWarm(p.Now()); ok {
		p.Sleep(s.params.WarmStart.Sample(s.rng))
	} else {
		inv.Cold = true
		delay := s.params.ColdStartBase.Sample(s.rng)
		if s.params.CodeFetchBW > 0 {
			delay += time.Duration(f.cfg.CodeSizeMB * 1e6 / s.params.CodeFetchBW * float64(time.Second))
		}
		inv.ColdStartDelay = delay
		f.pool.RecordCold(delay)
		coldStart := p.Now()
		p.Sleep(delay)
		s.hooks.Tracer.Emit(span.KindCold, "gcf/cold/"+name, coldStart, p.Now(), invCtx)
	}

	var fault chaos.Fault
	faulted := false
	if s.hooks.Chaos != nil {
		fault, faulted = s.hooks.Chaos.Next(invCtx, "gcf", name)
	}

	execStart := p.Now()
	execSpan := s.hooks.Tracer.Start(execStart, span.KindExec, "gcf/exec/"+name, invCtx)
	crashed := false
	var out []byte
	var err error
	if faulted && (fault.Kind == chaos.TransientError || fault.Kind == chaos.Crash) {
		// Partial execution is still billed; a crash loses the warm
		// instance so the next invocation pays a fresh cold start.
		p.Sleep(fault.Delay)
		err = &chaos.FaultError{Kind: fault.Kind, Component: "gcf", Name: name}
		crashed = fault.Kind == chaos.Crash
	} else {
		if faulted && fault.Kind == chaos.TimeoutSpike {
			p.Sleep(fault.Delay)
		}
		p.TraceCtx = execSpan.Context()
		out, err = f.cfg.Handler(&Context{p: p, fn: f}, payload)
		p.TraceCtx = caller
	}
	exec := p.Now() - execStart
	if exec > f.cfg.Timeout {
		exec = f.cfg.Timeout
		err = &TimeoutError{Function: name, Limit: f.cfg.Timeout}
		out = nil
	}
	execSpan.End(execStart + exec)
	f.Meter.RecordGCP(exec, f.cfg.MemoryMB, f.cfg.ConsumedMemMB)

	if !crashed {
		f.pool.Release(p.Now())
	}
	f.slots.Release()

	inv.Output = out
	inv.Err = err
	if err != nil {
		f.stats.Errors++
	}
	inv.ExecTime = exec
	inv.Total = p.Now() - start
	if invSpan.Live() {
		attrs := []span.Attr{span.A("cold", boolStr(inv.Cold))}
		if err != nil {
			attrs = append(attrs, span.A("error", err.Error()))
		}
		invSpan.End(p.Now(), attrs...)
	}
	return inv, nil
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// TotalMeter sums billing meters across all functions in sorted name
// order (float accumulation must not depend on map iteration order).
func (s *Functions) TotalMeter() platform.Meter {
	names := make([]string, 0, len(s.fns))
	for name := range s.fns {
		names = append(names, name)
	}
	sort.Strings(names)
	var m platform.Meter
	for _, name := range names {
		m.Add(s.fns[name].Meter)
	}
	return m
}

// ResetMeters zeroes all function meters and stats (warm pools kept).
func (s *Functions) ResetMeters() {
	for _, f := range s.fns {
		f.Meter.Reset()
		f.stats = Stats{}
		f.pool.ResetStats()
	}
}
