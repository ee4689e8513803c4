package platform_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"statebench/internal/aws/lambda"
	"statebench/internal/chaos"
	"statebench/internal/gcp"
	"statebench/internal/obs/instr"
	"statebench/internal/obs/span"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// provider is one per-request FaaS configuration under test: the same
// behaviour must hold on both, with each provider's own calibration,
// names and memory rule.
type provider struct {
	// name is the span/error prefix and chaos component.
	name string
	// memMB is a size the provider's memory rule accepts.
	memMB int
	// coldBase is the fixed cold-start base of params.
	coldBase time.Duration
	params   platform.PerRequestParams
	build    func(k *sim.Kernel, hooks *instr.Hooks) *platform.FaaS
}

// fix makes every latency deterministic for exact assertions.
func fix(p *platform.PerRequestParams, coldBase time.Duration) {
	p.InvokeRTT = sim.Fixed{D: 10 * time.Millisecond}
	p.ColdStartBase = sim.Fixed{D: coldBase}
	p.CodeFetchBW = 50e6 // 50 MB/s
	p.WarmStart = sim.Fixed{D: 5 * time.Millisecond}
	p.KeepAlive = time.Minute
	p.BurstConcurrency = 2
}

func providers() []provider {
	aws := platform.DefaultAWS()
	fix(&aws.PerRequestParams, 300*time.Millisecond)
	gcf := platform.DefaultGCP()
	fix(&gcf.PerRequestParams, 500*time.Millisecond)
	return []provider{
		{name: "lambda", memMB: 1536, coldBase: 300 * time.Millisecond, params: aws.PerRequestParams,
			build: func(k *sim.Kernel, h *instr.Hooks) *platform.FaaS { return lambda.New(k, aws, h) }},
		{name: "gcf", memMB: 2048, coldBase: 500 * time.Millisecond, params: gcf.PerRequestParams,
			build: func(k *sim.Kernel, h *instr.Hooks) *platform.FaaS { return gcp.NewFunctions(k, gcf, h) }},
	}
}

// eachProvider runs body once per provider, on a fresh kernel and a
// service with its own (empty) hooks bundle.
func eachProvider(t *testing.T, body func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS)) {
	for _, pv := range providers() {
		t.Run(pv.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			body(t, pv, k, pv.build(k, &instr.Hooks{}))
		})
	}
}

// client runs body as one client process to completion.
func client(k *sim.Kernel, body func(p *sim.Proc)) {
	k.Spawn("client", body)
	k.Run()
}

func echo(ctx *platform.Context, payload []byte) ([]byte, error) {
	ctx.Busy(100 * time.Millisecond)
	return payload, nil
}

// busy returns a handler that computes for d and returns no output.
func busy(d time.Duration) platform.Handler {
	return func(ctx *platform.Context, _ []byte) ([]byte, error) {
		ctx.Busy(d)
		return nil, nil
	}
}

// gbs is d billed at memMB, in GB-s.
func gbs(d time.Duration, memMB int) float64 { return d.Seconds() * float64(memMB) / 1024 }

func almostEqual(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

func TestFaaSRegisterValidation(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		if _, err := s.Register(platform.FunctionConfig{Name: "", MemoryMB: pv.memMB, Handler: echo}); err == nil {
			t.Fatal("empty name accepted")
		}
		if _, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB}); err == nil {
			t.Fatal("nil handler accepted")
		}
		if _, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: echo}); err != nil {
			t.Fatalf("valid register failed: %v", err)
		}
		_, err := s.Register(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: echo})
		if err == nil {
			t.Fatal("duplicate register accepted")
		}
		if !strings.HasPrefix(err.Error(), pv.name+": ") {
			t.Fatalf("error %q lacks the %q prefix", err, pv.name)
		}
	})
}

func TestFaaSColdThenWarm(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, CodeSizeMB: 50, Handler: echo})
		var first, second *platform.Invocation
		client(k, func(p *sim.Proc) {
			first, _ = s.Invoke(p, "f", []byte("a"))
			second, _ = s.Invoke(p, "f", []byte("b"))
		})
		if !first.Cold {
			t.Fatal("first invoke should be cold")
		}
		// Base + 50 MB / 50 MBps = 1 s fetch.
		if want := pv.coldBase + time.Second; first.ColdStartDelay != want {
			t.Fatalf("cold start = %v, want %v", first.ColdStartDelay, want)
		}
		if second.Cold {
			t.Fatal("second invoke should reuse the warm container")
		}
		// Warm total: 10ms RTT + 5ms warm start + 100ms exec.
		if second.Total != 115*time.Millisecond {
			t.Fatalf("warm total = %v, want 115ms", second.Total)
		}
		if string(second.Output) != "b" {
			t.Fatalf("output = %q, want the echoed payload", second.Output)
		}
	})
}

func TestFaaSKeepAliveExpiry(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		f := s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: echo}) // 1 min keep-alive
		var again *platform.Invocation
		client(k, func(p *sim.Proc) {
			if _, err := s.Invoke(p, "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
			if f.WarmContainers(p.Now()) != 1 {
				t.Errorf("warm containers = %d, want 1", f.WarmContainers(p.Now()))
			}
			p.Sleep(2 * time.Minute)
			again, _ = s.Invoke(p, "f", nil)
		})
		if !again.Cold {
			t.Fatal("invoke after keep-alive expiry should be cold")
		}
	})
}

func TestFaaSPayloadLimit(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: echo})
		var err error
		client(k, func(p *sim.Proc) { _, err = s.Invoke(p, "f", make([]byte, pv.params.PayloadLimit+1)) })
		var tooBig *platform.PayloadTooLargeError
		if !errors.As(err, &tooBig) {
			t.Fatalf("err = %v, want PayloadTooLargeError", err)
		}
		if !strings.HasPrefix(err.Error(), pv.name+": payload for f is ") {
			t.Fatalf("error text %q lacks the %q prefix", err, pv.name)
		}
	})
}

func TestFaaSBurstConcurrencyQueues(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		s.MustRegister(platform.FunctionConfig{Name: "slow", MemoryMB: pv.memMB, Handler: busy(time.Second)}) // burst = 2
		queued := 0
		for i := 0; i < 4; i++ {
			k.Spawn("client", func(p *sim.Proc) {
				inv, err := s.Invoke(p, "slow", nil)
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if inv.QueueDelay > 0 {
					queued++
				}
			})
		}
		k.Run()
		if queued != 2 {
			t.Fatalf("queued invokes = %d, want 2 (burst limit 2 of 4)", queued)
		}
	})
}

// TestFaaSTimeoutClampsBilling checks a handler running past its
// configured timeout: TimeoutError, no output, and execution and
// billing both clamped to the timeout.
func TestFaaSTimeoutClampsBilling(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		hang := func(ctx *platform.Context, _ []byte) ([]byte, error) {
			ctx.Busy(10 * time.Second)
			return []byte("never"), nil
		}
		f := s.MustRegister(platform.FunctionConfig{Name: "h", MemoryMB: pv.memMB, Timeout: time.Second, Handler: hang})
		var inv *platform.Invocation
		client(k, func(p *sim.Proc) { inv, _ = s.Invoke(p, "h", nil) })
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
		if want := gbs(time.Second, pv.memMB); !almostEqual(f.Meter.BilledGBs, want) {
			t.Fatalf("BilledGBs = %v, want %v", f.Meter.BilledGBs, want)
		}
	})
}

func TestFaaSTimeLimitCapsConfiguredTimeout(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		f := s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Timeout: time.Hour, Handler: echo})
		if f.Config().Timeout != pv.params.TimeLimit {
			t.Fatalf("timeout = %v, want clamped to the %v limit", f.Config().Timeout, pv.params.TimeLimit)
		}
		g := s.MustRegister(platform.FunctionConfig{Name: "g", MemoryMB: pv.memMB, Handler: echo})
		if g.Config().Timeout != pv.params.TimeLimit {
			t.Fatalf("unset timeout = %v, want the %v limit", g.Config().Timeout, pv.params.TimeLimit)
		}
	})
}

func TestFaaSBillingRoundsTo100msOnConfiguredMemory(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		f := s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, ConsumedMemMB: 400, Handler: busy(110 * time.Millisecond)})
		client(k, func(p *sim.Proc) {
			if _, err := s.Invoke(p, "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		})
		if want := gbs(200*time.Millisecond, pv.memMB); !almostEqual(f.Meter.BilledGBs, want) {
			t.Fatalf("BilledGBs = %v, want %v", f.Meter.BilledGBs, want)
		}
	})
}

func TestFaaSInvokeUnknownFunction(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		var err error
		client(k, func(p *sim.Proc) { _, err = s.Invoke(p, "ghost", nil) })
		if err == nil {
			t.Fatal("invoke of unknown function succeeded")
		}
		if want := pv.name + `: no such function "ghost"`; err.Error() != want {
			t.Fatalf("err = %q, want %q", err, want)
		}
	})
}

func TestFaaSHandlerErrorReported(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		boom := errors.New("boom")
		s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: func(*platform.Context, []byte) ([]byte, error) {
			return nil, boom
		}})
		var inv *platform.Invocation
		client(k, func(p *sim.Proc) { inv, _ = s.Invoke(p, "f", nil) })
		if !errors.Is(inv.Err, boom) {
			t.Fatalf("err = %v", inv.Err)
		}
		f, _ := s.Function("f")
		if f.Stats().Errors != 1 {
			t.Fatal("error not counted")
		}
	})
}

func TestFaaSStatsAndMeters(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: echo})
		client(k, func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				if _, err := s.Invoke(p, "f", nil); err != nil {
					t.Errorf("invoke: %v", err)
				}
			}
		})
		f, _ := s.Function("f")
		st := f.Stats()
		if st.Invokes != 3 || st.ColdStarts != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if len(st.ColdDelays) != 1 {
			t.Fatalf("cold delays = %v", st.ColdDelays)
		}
		if s.TotalMeter().Invocations != 3 {
			t.Fatal("total meter wrong")
		}
		s.ResetMeters()
		if s.TotalMeter().Invocations != 0 || f.Stats().Invokes != 0 {
			t.Fatal("reset did not clear")
		}
	})
}

// TestFaaSSpanNames pins the provider prefix of every span an invoke
// emits; no golden covers GCF's span names.
func TestFaaSSpanNames(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		tr := span.New()
		s.Hooks().Tracer = tr
		s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: busy(time.Second)}) // burst = 2
		for i := 0; i < 3; i++ {
			k.Spawn("client", func(p *sim.Proc) {
				if _, err := s.Invoke(p, "f", nil); err != nil {
					t.Errorf("invoke: %v", err)
				}
			})
		}
		k.Run()
		got := map[span.Kind]map[string]int{}
		for _, sp := range tr.Spans() {
			if got[sp.Kind] == nil {
				got[sp.Kind] = map[string]int{}
			}
			got[sp.Kind][sp.Name]++
		}
		// Three invokes; the third queues for a burst slot and reuses a
		// warm container, the first two start cold.
		want := map[span.Kind]map[string]int{
			span.KindInvoke: {pv.name + "/f": 3},
			span.KindQueue:  {pv.name + "/admission/f": 1},
			span.KindCold:   {pv.name + "/cold/f": 2},
			span.KindExec:   {pv.name + "/exec/f": 3},
		}
		for kind, names := range want {
			for name, n := range names {
				if got[kind][name] != n {
					t.Errorf("%s spans named %q = %d, want %d (all: %v)", kind, name, got[kind][name], n, got)
				}
			}
		}
	})
}

// inject arms s with an injector firing rule on the provider's
// component ("lambda", "gcf").
func inject(k *sim.Kernel, s *platform.FaaS, pv provider, rule chaos.Rule) *chaos.Injector {
	rule.Component = pv.name
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{rule}})
	s.Hooks().Chaos = inj
	return inj
}

func TestFaaSChaosTransientErrorBillsPartialExecution(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		inject(k, s, pv, chaos.Rule{Kind: chaos.TransientError, Rate: 1, Delay: 40 * time.Millisecond, MaxFaults: 1})
		ran := 0
		f := s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: func(ctx *platform.Context, p []byte) ([]byte, error) {
			ran++
			return echo(ctx, p)
		}})
		var first, second *platform.Invocation
		client(k, func(p *sim.Proc) {
			first, _ = s.Invoke(p, "f", []byte("x"))
			second, _ = s.Invoke(p, "f", []byte("y"))
		})
		var fe *chaos.FaultError
		if !errors.As(first.Err, &fe) || fe.Kind != chaos.TransientError || fe.Component != pv.name || fe.Name != "f" {
			t.Fatalf("err = %v, want a %s transient FaultError on f", first.Err, pv.name)
		}
		if first.Output != nil || ran != 1 {
			t.Fatalf("faulted invoke output %q, handler ran %d times; want no output and one (second) run", first.Output, ran)
		}
		if first.ExecTime != 40*time.Millisecond {
			t.Fatalf("faulted exec = %v, want the 40ms partial run", first.ExecTime)
		}
		// The partial 40 ms bills as 100 ms; the clean 100 ms as 100 ms.
		if want := 2 * gbs(100*time.Millisecond, pv.memMB); !almostEqual(f.Meter.BilledGBs, want) {
			t.Fatalf("BilledGBs = %v, want %v (partial execution billed)", f.Meter.BilledGBs, want)
		}
		if second.Err != nil || second.Cold {
			t.Fatalf("after a transient error: err %v, cold %v; want a clean warm invoke", second.Err, second.Cold)
		}
		if st := f.Stats(); st.Errors != 1 || st.Invokes != 2 {
			t.Fatalf("stats = %+v, want 1 error in 2 invokes", st)
		}
	})
}

func TestFaaSChaosCrashLosesWarmContainer(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		// Skip the first invoke, so the crash hits a warm container.
		inject(k, s, pv, chaos.Rule{Kind: chaos.Crash, Rate: 1, Delay: 40 * time.Millisecond, MaxFaults: 1, After: 1})
		f := s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Handler: echo})
		var invs [3]*platform.Invocation
		warmAfterCrash := -1
		client(k, func(p *sim.Proc) {
			invs[0], _ = s.Invoke(p, "f", nil)
			invs[1], _ = s.Invoke(p, "f", nil)
			warmAfterCrash = f.WarmContainers(p.Now())
			invs[2], _ = s.Invoke(p, "f", nil)
		})
		if !invs[0].Cold || invs[0].Err != nil {
			t.Fatalf("first invoke: cold %v, err %v; want a clean cold start", invs[0].Cold, invs[0].Err)
		}
		var fe *chaos.FaultError
		if invs[1].Cold || !errors.As(invs[1].Err, &fe) || fe.Kind != chaos.Crash || fe.Component != pv.name {
			t.Fatalf("second invoke: cold %v, err %v; want a %s crash on the warm container", invs[1].Cold, invs[1].Err, pv.name)
		}
		if warmAfterCrash != 0 {
			t.Fatalf("warm containers after crash = %d, want 0", warmAfterCrash)
		}
		if !invs[2].Cold || invs[2].Err != nil {
			t.Fatalf("third invoke: cold %v, err %v; want a clean cold start", invs[2].Cold, invs[2].Err)
		}
		if st := f.Stats(); st.ColdStarts != 2 {
			t.Fatalf("cold starts = %d, want 2", st.ColdStarts)
		}
	})
}

func TestFaaSChaosTimeoutSpikeExceedsTimeout(t *testing.T) {
	eachProvider(t, func(t *testing.T, pv provider, k *sim.Kernel, s *platform.FaaS) {
		inject(k, s, pv, chaos.Rule{Kind: chaos.TimeoutSpike, Rate: 1, Delay: 2 * time.Second, MaxFaults: 1})
		f := s.MustRegister(platform.FunctionConfig{Name: "f", MemoryMB: pv.memMB, Timeout: time.Second, Handler: echo})
		var inv *platform.Invocation
		client(k, func(p *sim.Proc) { inv, _ = s.Invoke(p, "f", []byte("x")) })
		var te *platform.TimeoutError
		if !errors.As(inv.Err, &te) {
			t.Fatalf("err = %v, want TimeoutError", inv.Err)
		}
		if want := pv.name + ": f timed out after 1s"; inv.Err.Error() != want {
			t.Fatalf("error text = %q, want %q", inv.Err, want)
		}
		if inv.Output != nil {
			t.Fatal("timed-out invoke returned output")
		}
		if inv.ExecTime != time.Second {
			t.Fatalf("exec = %v, want clamped to the 1s timeout", inv.ExecTime)
		}
		if want := gbs(time.Second, pv.memMB); !almostEqual(f.Meter.BilledGBs, want) {
			t.Fatalf("BilledGBs = %v, want %v (clamped)", f.Meter.BilledGBs, want)
		}
	})
}
