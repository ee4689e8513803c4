package trace_test

import (
	"testing"
	"time"

	"statebench/internal/aws/lambda"
	"statebench/internal/azure/functions"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
	"statebench/internal/trace"
)

func TestLambdaEmitsCloudWatchStyleRecords(t *testing.T) {
	k := sim.NewKernel(1)
	svc := lambda.New(k, platform.DefaultAWS(), &instr.Hooks{})
	svc.Logs = trace.NewCollector("aws")
	svc.MustRegister(lambda.Config{Name: "f", MemoryMB: 128, Handler: func(ctx *lambda.Context, p []byte) ([]byte, error) {
		ctx.Busy(time.Second)
		return p, nil
	}})
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := svc.Invoke(p, "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}
	})
	k.Run()
	inv := svc.Logs.Select(trace.Query{Kind: trace.KindInvocation})
	if len(inv) != 3 {
		t.Fatalf("invocation records = %d", len(inv))
	}
	cold := svc.Logs.Select(trace.Query{Kind: trace.KindColdStart})
	if len(cold) != 1 {
		t.Fatalf("cold-start records = %d, want 1 (first invoke)", len(cold))
	}
	sums := svc.Logs.Summarize(trace.Query{Kind: trace.KindInvocation})
	if len(sums) != 1 || sums[0].Count != 3 {
		t.Fatalf("summary = %+v", sums)
	}
}

func TestAzureHostEmitsAppInsightsStyleRecords(t *testing.T) {
	k := sim.NewKernel(1)
	host := functions.NewHost(k, "app", platform.DefaultAzure(), &instr.Hooks{})
	host.Logs = trace.NewCollector("azure")
	host.MustRegister(functions.Config{Name: "f", Handler: func(ctx *functions.Context, p []byte) ([]byte, error) {
		ctx.Busy(500 * time.Millisecond)
		return p, nil
	}})
	k.Spawn("client", func(p *sim.Proc) {
		defer host.Stop()
		for i := 0; i < 2; i++ {
			if _, err := host.InvokeHTTP(p, "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}
	})
	k.Run()
	if got := len(host.Logs.Select(trace.Query{Kind: trace.KindInvocation})); got != 2 {
		t.Fatalf("invocation records = %d", got)
	}
	if got := len(host.Logs.Select(trace.Query{Kind: trace.KindColdStart})); got != 1 {
		t.Fatalf("cold-start records = %d", got)
	}
}
