package functions

import (
	"testing"
	"time"

	"statebench/internal/cloud/queue"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// fixedParams makes the host deterministic for exact assertions.
func fixedParams() platform.AzureParams {
	p := platform.DefaultAzure()
	p.HTTPTriggerRTT = sim.Fixed{D: 10 * time.Millisecond}
	p.InstanceColdStart = sim.Fixed{D: time.Second}
	p.Dispatch = sim.Fixed{D: 5 * time.Millisecond}
	p.ScaleEvalInterval = 2 * time.Second
	p.ScaleOutStep = 1
	p.MaxInstances = 4
	p.IdleInstanceTimeout = time.Minute
	p.ColdPollPhase = sim.Fixed{D: 10 * time.Second}
	return p
}

func busyFn(d time.Duration) Handler {
	return func(ctx *Context, payload []byte) ([]byte, error) {
		ctx.Busy(d)
		return payload, nil
	}
}

func TestRegisterValidation(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{})
	if _, err := h.Register(Config{Name: "", Handler: busyFn(0)}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := h.Register(Config{Name: "f"}); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := h.Register(Config{Name: "f", Handler: busyFn(0), ConsumedMemMB: 9999}); err == nil {
		t.Fatal("over-limit memory accepted")
	}
	if _, err := h.Register(Config{Name: "f", Handler: busyFn(0)}); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if _, err := h.Register(Config{Name: "f", Handler: busyFn(0)}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestHTTPInvokeColdThenWarm(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{})
	h.MustRegister(Config{Name: "f", ConsumedMemMB: 256, Handler: busyFn(100 * time.Millisecond)})
	var first, second Result
	k.Spawn("client", func(p *sim.Proc) {
		var err error
		first, err = h.InvokeHTTP(p, "f", []byte("x"))
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
		second, err = h.InvokeHTTP(p, "f", []byte("y"))
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	h.Stop()
	k.Run()
	if !first.Cold {
		t.Fatal("first invoke should be cold")
	}
	if first.SchedDelay != time.Second {
		t.Fatalf("first sched delay = %v, want 1s instance cold start", first.SchedDelay)
	}
	if second.Cold || second.SchedDelay != 0 {
		t.Fatalf("second invoke should be warm immediate, got %+v", second)
	}
	if string(second.Output) != "y" {
		t.Fatalf("output = %q", second.Output)
	}
}

func TestScaleControllerAddsInstancesGradually(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{}) // step 1 per 2s, max 4
	h.MustRegister(Config{Name: "slow", Handler: busyFn(20 * time.Second)})
	futs := make([]*sim.Future[Result], 4)
	k.Spawn("client", func(p *sim.Proc) {
		for i := range futs {
			f, err := h.Submit("slow", nil)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			futs[i] = f
		}
		for _, f := range futs {
			if _, err := f.Await(p); err != nil {
				t.Errorf("await: %v", err)
			}
		}
	})
	k.Run()
	delays := h.Stats().SchedDelays
	if len(delays) != 4 {
		t.Fatalf("got %d sched delays", len(delays))
	}
	// First instance starts immediately (1s cold). Controller adds one
	// instance per 2s tick afterwards: delays must be strictly staggered.
	if delays[0] != time.Second {
		t.Fatalf("first delay = %v", delays[0])
	}
	for i := 1; i < 4; i++ {
		if delays[i] <= delays[i-1] {
			t.Fatalf("delays not staggered by gradual scale-out: %v", delays)
		}
	}
	if h.Stats().MaxReady != 4 {
		t.Fatalf("max ready = %d, want 4", h.Stats().MaxReady)
	}
}

func TestMaxInstancesCap(t *testing.T) {
	k := sim.NewKernel(1)
	p := fixedParams()
	p.MaxInstances = 2
	h := NewHost(k, "app", p, &instr.Hooks{})
	h.MustRegister(Config{Name: "slow", Handler: busyFn(5 * time.Second)})
	k.Spawn("client", func(pr *sim.Proc) {
		var futs []*sim.Future[Result]
		for i := 0; i < 6; i++ {
			f, _ := h.Submit("slow", nil)
			futs = append(futs, f)
		}
		for _, f := range futs {
			if _, err := f.Await(pr); err != nil {
				t.Errorf("await: %v", err)
			}
		}
	})
	k.Run()
	if h.Stats().MaxReady > 2 {
		t.Fatalf("max ready = %d, exceeds cap 2", h.Stats().MaxReady)
	}
	// 6 jobs, 2 instances, 5s each => at least 3 serial rounds.
	if got := h.Stats().Completed; got != 6 {
		t.Fatalf("completed = %d", got)
	}
}

func TestInstanceReuseDrainsQueueWithoutNewColdStarts(t *testing.T) {
	k := sim.NewKernel(1)
	p := fixedParams()
	p.ScaleEvalInterval = time.Hour // controller effectively off
	h := NewHost(k, "app", p, &instr.Hooks{})
	h.MustRegister(Config{Name: "f", Handler: busyFn(100 * time.Millisecond)})
	done := 0
	k.Spawn("client", func(pr *sim.Proc) {
		var futs []*sim.Future[Result]
		for i := 0; i < 5; i++ {
			f, _ := h.Submit("f", nil)
			futs = append(futs, f)
		}
		for _, f := range futs {
			r, _ := f.Await(pr)
			if r.Err == nil {
				done++
			}
		}
	})
	k.RunUntil(time.Hour / 2)
	if done != 5 {
		t.Fatalf("done = %d, want 5 (single instance should drain the queue)", done)
	}
	if h.Stats().ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1", h.Stats().ColdStarts)
	}
}

func TestIdleInstancesReaped(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{}) // idle timeout 1 min
	h.MustRegister(Config{Name: "f", Handler: busyFn(10 * time.Millisecond)})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := h.InvokeHTTP(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	k.Run() // runs until idle reaping completes and no events remain
	if h.ReadyInstances() != 0 {
		t.Fatalf("ready = %d after idle timeout, want 0", h.ReadyInstances())
	}
}

func TestAzureBillingOnConsumedMemory(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{})
	f := h.MustRegister(Config{Name: "f", ConsumedMemMB: 300, Handler: busyFn(2 * time.Second)})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := h.InvokeHTTP(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	h.Stop()
	k.Run()
	want := 2 * 384.0 / 1024 // 2s at 300->384 MB
	if d := f.Meter.BilledGBs - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("BilledGBs = %v, want %v", f.Meter.BilledGBs, want)
	}
	if f.Execs != 1 {
		t.Fatalf("execs = %d", f.Execs)
	}
}

func TestQueueTriggerExecutesAndBillsPolls(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{})
	var got []byte
	h.MustRegister(Config{Name: "f", Handler: func(ctx *Context, payload []byte) ([]byte, error) {
		got = payload
		return nil, nil
	}})
	qp := queue.DefaultParams()
	qp.OpLatency = sim.Fixed{D: 5 * time.Millisecond}
	q := queue.New(k, "trigger", qp, &instr.Hooks{})
	if err := h.QueueTrigger(q, "f"); err != nil {
		t.Fatal(err)
	}
	k.At(5*time.Second, func() {
		if err := q.EnqueueFromKernel([]byte("msg")); err != nil {
			t.Error(err)
		}
	})
	k.At(40*time.Second, func() { h.Stop() })
	k.Run()
	if string(got) != "msg" {
		t.Fatalf("queue trigger did not run: %q", got)
	}
	// Each poll takes 5 ms. Empty polls end at 0.005, 0.11, 0.315,
	// 0.72, 1.525 and 3.13 s (waits 100 ms doubling); the 6.335 s poll
	// finds the message. The 10 s activation ends at 16.335 s and its
	// submission kicks the listener: empty polls at 16.34 s, then
	// 16.345 s right after the kick, then 16.45, 16.655, 17.06, 17.865,
	// 19.47, 22.675, 29.08 and 39.085 s, where the waits reach the 10 s
	// TriggerMaxPoll cap. The next poll would be after the 40 s stop.
	if got := q.Stats().EmptyPolls; got != 16 {
		t.Fatalf("empty polls = %d, want 16; idle polling must be metered", got)
	}
}

func TestQueueTriggerColdPollPhase(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{}) // ColdPollPhase fixed 10s
	var ranAt time.Duration
	h.MustRegister(Config{Name: "f", Handler: func(ctx *Context, payload []byte) ([]byte, error) {
		ranAt = ctx.Proc().Now()
		return nil, nil
	}})
	q := queue.New(k, "trigger", queue.DefaultParams(), &instr.Hooks{})
	if err := h.QueueTrigger(q, "f"); err != nil {
		t.Fatal(err)
	}
	k.At(time.Second, func() {
		if err := q.EnqueueFromKernel([]byte("m")); err != nil {
			t.Error(err)
		}
	})
	k.At(2*time.Minute, func() { h.Stop() })
	k.Run()
	// Cold path: poll finds message, + 10s activation + 1s instance start.
	if ranAt < 12*time.Second {
		t.Fatalf("ran at %v; cold-poll activation phase missing", ranAt)
	}
}

func TestStopTerminatesListeners(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{})
	h.MustRegister(Config{Name: "f", Handler: busyFn(0)})
	q := queue.New(k, "trigger", queue.DefaultParams(), &instr.Hooks{})
	if err := h.QueueTrigger(q, "f"); err != nil {
		t.Fatal(err)
	}
	k.At(time.Minute, func() { h.Stop() })
	end := k.Run() // must terminate
	if end > 2*time.Minute {
		t.Fatalf("kernel ran to %v after Stop", end)
	}
}

func TestResetMeters(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams(), &instr.Hooks{})
	h.MustRegister(Config{Name: "f", Handler: busyFn(time.Second)})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := h.InvokeHTTP(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	h.Stop()
	k.Run()
	if h.TotalMeter().Invocations != 1 {
		t.Fatal("meter empty before reset")
	}
	h.ResetMeters()
	if h.TotalMeter().Invocations != 0 || len(h.Stats().SchedDelays) != 0 {
		t.Fatal("reset incomplete")
	}
}
