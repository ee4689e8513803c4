package aws

import (
	"testing"
	"time"

	"statebench/internal/aws/lambda"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

func TestCloudAssembly(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, platform.DefaultAWS(), &instr.Hooks{})
	if c.Lambda == nil || c.SFN == nil || c.S3 == nil {
		t.Fatal("cloud incomplete")
	}
	c.Lambda.MustRegister(lambda.Config{Name: "f", MemoryMB: 128, Handler: func(ctx *lambda.Context, p []byte) ([]byte, error) {
		ctx.Busy(time.Second)
		return p, nil
	}})
	k.Spawn("t", func(p *sim.Proc) {
		if _, err := c.Lambda.Invoke(p, "f", []byte("x")); err != nil {
			t.Errorf("invoke: %v", err)
		}
		c.S3.Put(p, "k", []byte("v"))
	})
	k.Run()
	if c.Lambda.TotalMeter().Invocations != 1 || c.S3.Stats().Puts != 1 {
		t.Fatal("meters not recording")
	}
	c.ResetMeters()
	if c.Lambda.TotalMeter().Invocations != 0 || c.S3.Stats().Puts != 0 {
		t.Fatal("reset incomplete")
	}
}
