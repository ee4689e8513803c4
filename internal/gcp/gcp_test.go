package gcp

import (
	"errors"
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// The Cloud Functions tests below pin the shared service's behaviour
// through GCP's configuration; internal/platform/faas_test.go runs the
// same behaviours, and the chaos branches, on every per-request
// provider.

// fixedParams makes every latency deterministic for exact assertions.
func fixedParams() platform.GCPParams {
	p := platform.DefaultGCP()
	p.InvokeRTT = sim.Fixed{D: 10 * time.Millisecond}
	p.ColdStartBase = sim.Fixed{D: 500 * time.Millisecond}
	p.CodeFetchBW = 50e6 // 50 MB/s
	p.WarmStart = sim.Fixed{D: 5 * time.Millisecond}
	p.KeepAlive = time.Minute
	p.BurstConcurrency = 2
	p.StepOverhead = sim.Fixed{D: 20 * time.Millisecond}
	p.CallDispatch = sim.Fixed{D: 30 * time.Millisecond}
	return p
}

func echo(ctx *platform.Context, payload []byte) ([]byte, error) {
	ctx.Busy(100 * time.Millisecond)
	return payload, nil
}

func TestRegisterValidation(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewFunctions(k, fixedParams(), &instr.Hooks{})
	if _, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: 300, Handler: echo}); err == nil {
		t.Fatal("non-tier memory accepted")
	}
	if _, err := s.Register(platform.FunctionConfig{Name: "", MemoryMB: 256, Handler: echo}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256}); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, Handler: echo}); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if _, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, Handler: echo}); err == nil {
		t.Fatal("duplicate register accepted")
	}
}

func TestColdThenWarm(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewFunctions(k, fixedParams(), &instr.Hooks{})
	if _, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, CodeSizeMB: 50, Handler: echo}); err != nil {
		t.Fatal(err)
	}
	var first, second *platform.Invocation
	k.Spawn("client", func(p *sim.Proc) {
		first, _ = s.Invoke(p, "f", []byte("a"))
		second, _ = s.Invoke(p, "f", []byte("b"))
	})
	k.Run()
	if !first.Cold {
		t.Fatal("first invoke should be cold")
	}
	// 500 ms base + 50 MB / 50 MBps = 1 s fetch => 1.5 s cold start.
	if first.ColdStartDelay != 1500*time.Millisecond {
		t.Fatalf("cold start = %v, want 1.5s", first.ColdStartDelay)
	}
	if second.Cold {
		t.Fatal("second invoke should reuse the warm instance")
	}
	// Warm total: 10ms RTT + 5ms warm start + 100ms exec.
	if second.Total != 115*time.Millisecond {
		t.Fatalf("warm total = %v, want 115ms", second.Total)
	}
}

func TestTimeoutClampsBilling(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewFunctions(k, fixedParams(), &instr.Hooks{})
	if _, err := s.Register(platform.FunctionConfig{Name: "h", MemoryMB: 256, Timeout: time.Second, Handler: func(ctx *platform.Context, _ []byte) ([]byte, error) {
		ctx.Busy(10 * time.Second)
		return []byte("never"), nil
	}}); err != nil {
		t.Fatal(err)
	}
	var inv *platform.Invocation
	k.Spawn("client", func(p *sim.Proc) { inv, _ = s.Invoke(p, "h", nil) })
	k.Run()
	var te *platform.TimeoutError
	if !errors.As(inv.Err, &te) {
		t.Fatalf("err = %v, want TimeoutError", inv.Err)
	}
	if inv.Output != nil {
		t.Fatal("timed-out invoke returned output")
	}
	if inv.ExecTime != time.Second {
		t.Fatalf("billed exec = %v, want capped at 1s", inv.ExecTime)
	}
}

func TestTimeLimitCapsConfiguredTimeout(t *testing.T) {
	k := sim.NewKernel(1)
	params := fixedParams()
	s := NewFunctions(k, params, &instr.Hooks{})
	f, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, Timeout: time.Hour, Handler: echo})
	if err != nil {
		t.Fatal(err)
	}
	if f.Config().Timeout != params.TimeLimit {
		t.Fatalf("timeout = %v, want clamped to the %v gen-1 limit", f.Config().Timeout, params.TimeLimit)
	}
}

func TestBillingRoundsTo100msOnConfiguredTier(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewFunctions(k, fixedParams(), &instr.Hooks{})
	f, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: 2048, ConsumedMemMB: 400, Handler: func(ctx *platform.Context, _ []byte) ([]byte, error) {
		ctx.Busy(110 * time.Millisecond)
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := s.Invoke(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	k.Run()
	want := 0.2 * 2048.0 / 1024 // 200 ms at 2 GB
	if d := f.Meter.BilledGBs - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("BilledGBs = %v, want %v", f.Meter.BilledGBs, want)
	}
}

func TestWorkflowStepsAndFirstCallDelay(t *testing.T) {
	k := sim.NewKernel(1)
	params := fixedParams()
	fns := NewFunctions(k, params, &instr.Hooks{})
	wfs := NewWorkflows(k, params, fns)
	if _, err := fns.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, Handler: echo}); err != nil {
		t.Fatal(err)
	}
	err := wfs.Create("wf", func(ctx *Ctx, input map[string]any) (map[string]any, error) {
		out, err := ctx.Call("f", []byte("x"))
		if err != nil {
			return nil, err
		}
		return map[string]any{"echo": string(out)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var exec *Execution
	k.Spawn("client", func(p *sim.Proc) { exec, _ = wfs.Execute(p, "wf", nil) })
	k.Run()
	if exec.Err != nil {
		t.Fatal(exec.Err)
	}
	// init step + one call step.
	if exec.Steps != 2 || wfs.TotalSteps != 2 {
		t.Fatalf("steps = %d (total %d), want 2", exec.Steps, wfs.TotalSteps)
	}
	if exec.Output["echo"] != "x" {
		t.Fatalf("output = %v", exec.Output)
	}
	if exec.FirstCallDelay < 0 {
		t.Fatal("FirstCallDelay unset despite a completed call")
	}
	// The handler started after init (20ms) + dispatch (30ms) + RTT
	// (10ms) + cold start; it must therefore exceed the scheduling
	// overheads but stay below the whole execution.
	if exec.FirstCallDelay <= 60*time.Millisecond || exec.FirstCallDelay >= exec.Duration() {
		t.Fatalf("FirstCallDelay = %v, duration %v", exec.FirstCallDelay, exec.Duration())
	}
}

func TestWorkflowParallelOverlaps(t *testing.T) {
	k := sim.NewKernel(1)
	params := fixedParams()
	params.BurstConcurrency = 8
	fns := NewFunctions(k, params, &instr.Hooks{})
	wfs := NewWorkflows(k, params, fns)
	if _, err := fns.Register(platform.FunctionConfig{Name: "slow", MemoryMB: 256, Handler: func(ctx *platform.Context, _ []byte) ([]byte, error) {
		ctx.Busy(time.Second)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	branch := func(bc *Ctx) error {
		_, err := bc.Call("slow", nil)
		return err
	}
	if err := wfs.Create("wf", func(ctx *Ctx, _ map[string]any) (map[string]any, error) {
		return nil, ctx.Parallel(branch, branch, branch, branch)
	}); err != nil {
		t.Fatal(err)
	}
	var exec *Execution
	k.Spawn("client", func(p *sim.Proc) { exec, _ = wfs.Execute(p, "wf", nil) })
	k.Run()
	if exec.Err != nil {
		t.Fatal(exec.Err)
	}
	// Four 1s branches in parallel must take far less than 4s serial
	// (cold starts differ per instance, so allow generous headroom).
	if d := exec.Duration(); d >= 3*time.Second {
		t.Fatalf("parallel block took %v, want well under the 4s serial time", d)
	}
	// init + parallel + 4 call steps.
	if exec.Steps != 6 {
		t.Fatalf("steps = %d, want 6", exec.Steps)
	}
}

func TestWorkflowRetryRecoversInjectedFault(t *testing.T) {
	k := sim.NewKernel(1)
	params := fixedParams()
	fns := NewFunctions(k, params, &instr.Hooks{})
	wfs := NewWorkflows(k, params, fns)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "gwf", Kind: chaos.TransientError, Rate: 1, MaxFaults: 1},
	}})
	fns.Hooks().Chaos = inj
	if _, err := fns.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, Handler: echo}); err != nil {
		t.Fatal(err)
	}
	if err := wfs.Create("wf", func(ctx *Ctx, _ map[string]any) (map[string]any, error) {
		out, err := ctx.Call("f", []byte("y"))
		if err != nil {
			return nil, err
		}
		return map[string]any{"echo": string(out)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	var exec *Execution
	k.Spawn("client", func(p *sim.Proc) { exec, _ = wfs.Execute(p, "wf", nil) })
	k.Run()
	if exec.Err != nil {
		t.Fatalf("retry policy did not absorb the connector fault: %v", exec.Err)
	}
	st := inj.Stats()
	if st.Injected != 1 {
		t.Fatalf("injected = %d, want exactly 1 (MaxFaults)", st.Injected)
	}
	if st.Retries < 1 {
		t.Fatal("no retry recorded for the recovered fault")
	}
	// init + failed attempt + successful attempt: retried steps bill.
	if exec.Steps != 3 {
		t.Fatalf("steps = %d, want 3 (retried call step billed again)", exec.Steps)
	}
}

func TestWorkflowCallExhaustsRetries(t *testing.T) {
	k := sim.NewKernel(1)
	params := fixedParams()
	fns := NewFunctions(k, params, &instr.Hooks{})
	wfs := NewWorkflows(k, params, fns)
	boom := errors.New("boom")
	if _, err := fns.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, Handler: func(*platform.Context, []byte) ([]byte, error) {
		return nil, boom
	}}); err != nil {
		t.Fatal(err)
	}
	if err := wfs.Create("wf", func(ctx *Ctx, _ map[string]any) (map[string]any, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	k.Spawn("client", func(p *sim.Proc) {
		ctx := &Ctx{p: p, exec: &Execution{svc: wfs}, svc: wfs}
		_, err = ctx.Call("f", nil)
	})
	k.Run()
	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CallError after exhausted retries", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("CallError does not unwrap to the handler error: %v", err)
	}
}

func TestUsageAggregatesAcrossServices(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, fixedParams(), &instr.Hooks{})
	if _, err := c.Functions.Register(platform.FunctionConfig{Name: "f", MemoryMB: 256, Handler: func(ctx *platform.Context, _ []byte) ([]byte, error) {
		ctx.Busy(50 * time.Millisecond)
		c.GCS.Put(ctx.Proc(), "k", []byte("v"))
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Workflows.Create("wf", func(ctx *Ctx, _ map[string]any) (map[string]any, error) {
		_, err := ctx.Call("f", nil)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := c.Workflows.Execute(p, "wf", nil); err != nil {
			t.Errorf("execute: %v", err)
		}
	})
	k.Run()
	u := c.Usage(true)
	if u.Requests != 1 || u.GBs <= 0 || u.Exec <= 0 {
		t.Fatalf("usage = %+v", u)
	}
	if u.StatefulTxns != 2 || u.AllTxns != 2 {
		t.Fatalf("workflow steps in usage = %d/%d, want 2", u.StatefulTxns, u.AllTxns)
	}
	if u.BlobTxns == 0 {
		t.Fatal("GCS transactions missing from usage")
	}
	c.ResetMeters()
	u = c.Usage(true)
	if u.Requests != 0 || u.StatefulTxns != 0 || u.BlobTxns != 0 {
		t.Fatalf("usage after reset = %+v", u)
	}
}
