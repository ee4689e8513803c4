package lambda

import (
	"errors"
	"testing"
	"time"

	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// fixedParams makes every latency deterministic for exact assertions.
func fixedParams() platform.AWSParams {
	p := platform.DefaultAWS()
	p.InvokeRTT = sim.Fixed{D: 10 * time.Millisecond}
	p.ColdStartBase = sim.Fixed{D: 300 * time.Millisecond}
	p.CodeFetchBW = 50e6 // 50 MB/s
	p.WarmStart = sim.Fixed{D: 5 * time.Millisecond}
	p.KeepAlive = time.Minute
	p.BurstConcurrency = 2
	return p
}

func echo(ctx *Context, payload []byte) ([]byte, error) {
	ctx.Busy(100 * time.Millisecond)
	return payload, nil
}

func TestRegisterValidation(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{})
	if _, err := s.Register(Config{Name: "f", MemoryMB: 100, Handler: echo}); err == nil {
		t.Fatal("non-multiple memory accepted")
	}
	if _, err := s.Register(Config{Name: "", MemoryMB: 128, Handler: echo}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Register(Config{Name: "f", MemoryMB: 128}); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := s.Register(Config{Name: "f", MemoryMB: 128, Handler: echo}); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if _, err := s.Register(Config{Name: "f", MemoryMB: 128, Handler: echo}); err == nil {
		t.Fatal("duplicate register accepted")
	}
}

func TestColdThenWarm(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{})
	s.MustRegister(Config{Name: "f", MemoryMB: 128, CodeSizeMB: 50, Handler: echo})
	var first, second *Invocation
	k.Spawn("client", func(p *sim.Proc) {
		first, _ = s.Invoke(p, "f", []byte("a"))
		second, _ = s.Invoke(p, "f", []byte("b"))
	})
	k.Run()
	if !first.Cold {
		t.Fatal("first invoke should be cold")
	}
	// 300 ms base + 50 MB / 50 MBps = 1 s fetch => 1.3 s cold start.
	if first.ColdStartDelay != 1300*time.Millisecond {
		t.Fatalf("cold start = %v, want 1.3s", first.ColdStartDelay)
	}
	if second.Cold {
		t.Fatal("second invoke should reuse the warm container")
	}
	// Warm total: 10ms RTT + 5ms warm start + 100ms exec.
	if second.Total != 115*time.Millisecond {
		t.Fatalf("warm total = %v, want 115ms", second.Total)
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{}) // 1 min keep-alive
	f := s.MustRegister(Config{Name: "f", MemoryMB: 128, Handler: echo})
	var again *Invocation
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := s.Invoke(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
		if f.WarmContainers(p.Now()) != 1 {
			t.Errorf("warm containers = %d, want 1", f.WarmContainers(p.Now()))
		}
		p.Sleep(2 * time.Minute)
		again, _ = s.Invoke(p, "f", nil)
	})
	k.Run()
	if !again.Cold {
		t.Fatal("invoke after keep-alive expiry should be cold")
	}
}

func TestPayloadLimit(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{})
	s.MustRegister(Config{Name: "f", MemoryMB: 128, Handler: echo})
	var err error
	k.Spawn("client", func(p *sim.Proc) {
		_, err = s.Invoke(p, "f", make([]byte, 256*1024+1))
	})
	k.Run()
	var tooBig *PayloadTooLargeError
	if !errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want PayloadTooLargeError", err)
	}
}

func TestBurstConcurrencyQueues(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{}) // burst = 2
	slow := func(ctx *Context, payload []byte) ([]byte, error) {
		ctx.Busy(time.Second)
		return nil, nil
	}
	s.MustRegister(Config{Name: "slow", MemoryMB: 128, Handler: slow})
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
}

func TestTimeout(t *testing.T) {
	k := sim.NewKernel(1)
	params := fixedParams()
	s := New(k, params, &instr.Hooks{})
	hang := func(ctx *Context, payload []byte) ([]byte, error) {
		ctx.Busy(10 * time.Second)
		return []byte("never"), nil
	}
	s.MustRegister(Config{Name: "h", MemoryMB: 128, Timeout: time.Second, Handler: hang})
	var inv *Invocation
	k.Spawn("client", func(p *sim.Proc) { inv, _ = s.Invoke(p, "h", nil) })
	k.Run()
	var te *TimeoutError
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

func TestBillingRoundsTo100ms(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{})
	f := s.MustRegister(Config{Name: "f", MemoryMB: 1536, ConsumedMemMB: 400, Handler: func(ctx *Context, _ []byte) ([]byte, error) {
		ctx.Busy(110 * time.Millisecond)
		return nil, nil
	}})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := s.Invoke(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	k.Run()
	want := 0.2 * 1536.0 / 1024 // 200 ms at 1.5 GB
	if d := f.Meter.BilledGBs - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("BilledGBs = %v, want %v", f.Meter.BilledGBs, want)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{})
	var err error
	k.Spawn("client", func(p *sim.Proc) { _, err = s.Invoke(p, "ghost", nil) })
	k.Run()
	if err == nil {
		t.Fatal("invoke of unknown function succeeded")
	}
}

func TestHandlerErrorReported(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{})
	boom := errors.New("boom")
	s.MustRegister(Config{Name: "f", MemoryMB: 128, Handler: func(*Context, []byte) ([]byte, error) {
		return nil, boom
	}})
	var inv *Invocation
	k.Spawn("client", func(p *sim.Proc) { inv, _ = s.Invoke(p, "f", nil) })
	k.Run()
	if !errors.Is(inv.Err, boom) {
		t.Fatalf("err = %v", inv.Err)
	}
	f, _ := s.Function("f")
	if f.Stats().Errors != 1 {
		t.Fatal("error not counted")
	}
}

func TestStatsAndMeters(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, fixedParams(), &instr.Hooks{})
	s.MustRegister(Config{Name: "f", MemoryMB: 128, Handler: echo})
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := s.Invoke(p, "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}
	})
	k.Run()
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
}
