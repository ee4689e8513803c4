package azure

import (
	"testing"

	"statebench/internal/azure/functions"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

func TestCloudAssembly(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, platform.DefaultAzure(), &instr.Hooks{})
	if c.Host == nil || c.Hub == nil || c.Client == nil || c.Blob == nil {
		t.Fatal("cloud incomplete")
	}
	q := c.NewQueue("manual")
	c.Host.MustRegister(functions.Config{Name: "f", Handler: func(ctx *functions.Context, p []byte) ([]byte, error) {
		return p, nil
	}})
	k.Spawn("t", func(p *sim.Proc) {
		if _, err := c.Host.InvokeHTTP(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
		if err := q.Enqueue(p, []byte("m")); err != nil {
			t.Errorf("enqueue: %v", err)
		}
		if _, ok := q.TryDequeue(p); !ok {
			t.Error("dequeue failed")
		}
		c.Stop()
	})
	k.Run()
	if c.ManualQueueTransactions() != 3 {
		t.Fatalf("manual txns = %d, want 3", c.ManualQueueTransactions())
	}
	if c.StorageTransactions() < c.ManualQueueTransactions() {
		t.Fatal("hub transactions missing from total")
	}
	c.ResetMeters()
	if c.StorageTransactions() != 0 || c.Host.TotalMeter().Invocations != 0 {
		t.Fatal("reset incomplete")
	}
}
