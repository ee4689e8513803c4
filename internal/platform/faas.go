package platform

import (
	"fmt"
	"sort"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs/instr"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// FaaS is a simulated per-request function service: AWS Lambda and GCP
// Cloud Functions (gen 1) are both this model, differing only in their
// calibration (PerRequestParams), their name and RNG stream, and their
// memory rule — which is all their provider packages configure. Every
// invocation either reuses a warm container or pays its own cold start
// (the Pool's per-request style), behind a per-function burst
// concurrency cap; billing is on configured memory with 100 ms duration
// rounding.
type FaaS struct {
	k *sim.Kernel
	// name prefixes span names and error text and is the chaos
	// component ("lambda", "gcf").
	name     string
	rng      *sim.RNG
	params   PerRequestParams
	checkMem func(memMB int) error
	fns      map[string]*Function
	// hooks is the deployment's instrumentation bundle: its tracer gets
	// X-Ray-style spans per invocation (an invoke span wrapping
	// queue/coldstart/exec children); its injector can fail invocations
	// with transient errors, kill the executing container mid-invoke
	// (the warm container is lost), or stretch execution past the
	// configured timeout; its timeline gets every function's warm-pool
	// occupancy.
	hooks *instr.Hooks
}

// NewFaaS creates a per-request function service. name is the
// provider's span/error prefix and chaos component, stream names its
// RNG stream, and checkMem is the provider's memory rule, applied by
// Register (its error is prefixed with name).
func NewFaaS(k *sim.Kernel, name, stream string, params PerRequestParams, checkMem func(memMB int) error, hooks *instr.Hooks) *FaaS {
	return &FaaS{k: k, name: name, rng: k.Stream(stream), params: params, checkMem: checkMem, fns: make(map[string]*Function), hooks: hooks}
}

// Hooks returns the service's instrumentation bundle, which services
// layered on it (Step Functions, Workflows) share.
func (s *FaaS) Hooks() *instr.Hooks { return s.hooks }

// Handler is the user function body. It runs on the invoking process's
// virtual-time context; compute is modeled by ctx.Busy and I/O by
// calling simulated services with ctx.Proc().
type Handler func(ctx *Context, payload []byte) ([]byte, error)

// Context is passed to handlers.
type Context struct {
	p  *sim.Proc
	fn *Function
}

// Proc returns the simulation process executing this invocation; pass
// it to simulated storage services.
func (c *Context) Proc() *sim.Proc { return c.p }

// Busy consumes d of virtual compute time.
func (c *Context) Busy(d time.Duration) { c.p.Sleep(d) }

// FunctionName returns the executing function's name.
func (c *Context) FunctionName() string { return c.fn.cfg.Name }

// MemoryMB returns the configured memory size.
func (c *Context) MemoryMB() int { return c.fn.cfg.MemoryMB }

// FunctionConfig describes one function.
type FunctionConfig struct {
	Name string
	// MemoryMB is the configured memory; it must satisfy the provider's
	// memory rule (a 128 MB step on AWS, a fixed tier on GCP). Billing
	// uses this value.
	MemoryMB int
	// ConsumedMemMB models the memory the function actually uses
	// (reported, not billed).
	ConsumedMemMB int
	// CodeSizeMB is the deployment-package size; it lengthens cold
	// starts (Table II packages are 63–271 MB).
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

// FunctionStats aggregates per-function invoke outcomes.
type FunctionStats struct {
	Invokes    int64
	ColdStarts int64
	Errors     int64
	// ColdDelays holds each cold start's delay (for Fig 10/13).
	ColdDelays []time.Duration
}

// Function is a registered function. Container lifecycle — warm reuse,
// keep-alive expiry, cold-start stats — lives in its Pool.
type Function struct {
	cfg   FunctionConfig
	pool  Pool
	slots *sim.Resource
	Meter Meter
	stats FunctionStats
}

// Stats returns a snapshot of invoke outcomes, merging the function's
// invoke counters with the container pool's cold-start statistics.
func (f *Function) Stats() FunctionStats {
	s := f.stats
	ps := f.pool.Stats()
	s.ColdStarts = ps.ColdStarts
	s.ColdDelays = ps.ColdDelays
	return s
}

// Config returns the function's configuration.
func (f *Function) Config() FunctionConfig { return f.cfg }

// WarmContainers returns how many idle warm containers exist now.
func (f *Function) WarmContainers(now sim.Time) int { return f.pool.WarmCount(now) }

// Register adds a function. It validates the name, the handler and the
// provider's memory rule, and clamps the timeout to the time limit.
func (s *FaaS) Register(cfg FunctionConfig) (*Function, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%s: function name required", s.name)
	}
	if _, dup := s.fns[cfg.Name]; dup {
		return nil, fmt.Errorf("%s: function %q already registered", s.name, cfg.Name)
	}
	if err := s.checkMem(cfg.MemoryMB); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("%s: function %q has no handler", s.name, cfg.Name)
	}
	if cfg.ConsumedMemMB <= 0 {
		cfg.ConsumedMemMB = cfg.MemoryMB
	}
	if cfg.Timeout <= 0 || cfg.Timeout > s.params.TimeLimit {
		cfg.Timeout = s.params.TimeLimit
	}
	f := &Function{cfg: cfg, slots: sim.NewResource(s.k, s.params.BurstConcurrency)}
	f.pool.KeepAlive = s.params.KeepAlive
	f.pool.Hooks = s.hooks
	s.fns[cfg.Name] = f
	return f, nil
}

// MustRegister is Register that panics on error, for tests and fixed
// deployment code.
func (s *FaaS) MustRegister(cfg FunctionConfig) *Function {
	f, err := s.Register(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Function returns a registered function by name.
func (s *FaaS) Function(name string) (*Function, bool) {
	f, ok := s.fns[name]
	return f, ok
}

// TimeoutError reports an execution that exceeded its time limit.
type TimeoutError struct {
	// Service is the provider's name ("lambda", "gcf").
	Service  string
	Function string
	Limit    time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("%s: %s timed out after %v", e.Service, e.Function, e.Limit)
}

// PayloadTooLargeError reports an oversized synchronous payload.
type PayloadTooLargeError struct {
	// Service is the provider's name ("lambda", "gcf").
	Service  string
	Function string
	Size     int
	Limit    int
}

func (e *PayloadTooLargeError) Error() string {
	return fmt.Sprintf("%s: payload for %s is %d bytes, limit %d", e.Service, e.Function, e.Size, e.Limit)
}

// Invoke synchronously invokes a function from process p, blocking until
// the handler returns. Handler errors are reported in Invocation.Err
// (the Invocation still carries timing); infrastructure errors (unknown
// function, oversized payload) are returned as err.
func (s *FaaS) Invoke(p *sim.Proc, name string, payload []byte) (*Invocation, error) {
	f, ok := s.fns[name]
	if !ok {
		return nil, fmt.Errorf("%s: no such function %q", s.name, name)
	}
	if s.params.PayloadLimit > 0 && len(payload) > s.params.PayloadLimit {
		return nil, &PayloadTooLargeError{Service: s.name, Function: name, Size: len(payload), Limit: s.params.PayloadLimit}
	}
	start := p.Now()
	caller := p.TraceCtx
	invSpan := s.hooks.Tracer.Start(start, span.KindInvoke, s.name+"/"+name, caller)
	invCtx := invSpan.Context()
	p.Sleep(s.params.InvokeRTT.Sample(s.rng))

	// Burst-concurrency admission.
	qStart := p.Now()
	f.slots.Acquire(p)
	queueDelay := p.Now() - qStart
	if queueDelay > 0 {
		s.hooks.Tracer.Emit(span.KindQueue, s.name+"/admission/"+name, qStart, p.Now(), invCtx)
	}

	inv := &Invocation{QueueDelay: queueDelay}
	f.stats.Invokes++

	// Container acquisition: reuse a warm container or cold start.
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
		s.hooks.Tracer.Emit(span.KindCold, s.name+"/cold/"+name, coldStart, p.Now(), invCtx)
	}

	var fault chaos.Fault
	faulted := false
	if s.hooks.Chaos != nil {
		fault, faulted = s.hooks.Chaos.Next(invCtx, s.name, name)
	}

	execStart := p.Now()
	execSpan := s.hooks.Tracer.Start(execStart, span.KindExec, s.name+"/exec/"+name, invCtx)
	crashed := false
	var out []byte
	var err error
	if faulted && (fault.Kind == chaos.TransientError || fault.Kind == chaos.Crash) {
		// The handler runs partially, then the error (or the container
		// death) cuts it short. Partial execution is still billed.
		p.Sleep(fault.Delay)
		err = &chaos.FaultError{Kind: fault.Kind, Component: s.name, Name: name}
		crashed = fault.Kind == chaos.Crash
	} else {
		if faulted && fault.Kind == chaos.TimeoutSpike {
			// Runtime stall inside the execution window; may push the
			// invocation over its configured timeout below.
			p.Sleep(fault.Delay)
		}
		p.TraceCtx = execSpan.Context()
		out, err = f.cfg.Handler(&Context{p: p, fn: f}, payload)
		p.TraceCtx = caller
	}
	exec := p.Now() - execStart
	if exec > f.cfg.Timeout {
		exec = f.cfg.Timeout
		err = &TimeoutError{Service: s.name, Function: name, Limit: f.cfg.Timeout}
		out = nil
	}
	// The exec span ends at the *billed* duration so span-derived
	// breakdowns agree with the meter (timeouts clamp both the same way).
	execSpan.End(execStart + exec)
	f.Meter.RecordAWS(exec, f.cfg.MemoryMB, f.cfg.ConsumedMemMB)

	// Return the container to the warm pool — unless it crashed, in
	// which case the next invocation pays a fresh cold start.
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

// TotalMeter sums billing meters across all functions.
func (s *FaaS) TotalMeter() Meter {
	// Sum in sorted name order: float accumulation must not depend on
	// map iteration order, or two identical campaigns can disagree in
	// the last ULP of the billed GB-s.
	names := make([]string, 0, len(s.fns))
	for name := range s.fns {
		names = append(names, name)
	}
	sort.Strings(names)
	var m Meter
	for _, name := range names {
		m.Add(s.fns[name].Meter)
	}
	return m
}

// ResetMeters zeroes all function meters and stats (warm pools are kept).
func (s *FaaS) ResetMeters() {
	for _, f := range s.fns {
		f.Meter.Reset()
		f.stats = FunctionStats{}
		f.pool.ResetStats()
	}
}
