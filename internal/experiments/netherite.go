package experiments

import (
	"fmt"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/obs"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// AblationNetherite quantifies the execution-model improvements the
// paper's related work attributes to Netherite (Burckhardt et al.):
// commit orchestration state to fast storage instead of per-event
// table writes, and poll aggressively — modeled as faster history
// replay, sub-100 ms poll ceilings, and cheap state I/O.
//
// The workload is a fine-grained 20-step activity chain (100 ms of
// compute per step): exactly the dense-workflow regime where the
// paper says Azure's execution model needs improving, because the
// framework overhead (queue hops, history round trips, replay)
// dominates the useful work.
func AblationNetherite(o Options) (*Report, error) {
	base := platform.DefaultAzure()

	fast := platform.DefaultAzure()
	fast.DurableMaxPoll = 50 * time.Millisecond
	fast.HistoryReplayPerEvent = 500 * time.Microsecond
	fast.EntityStateRTT = sim.Fixed{D: time.Millisecond}
	fast.EntityOpOverhead = sim.Fixed{D: 2 * time.Millisecond}

	r := &Report{ID: "ablation-netherite",
		Title: "Durable execution model vs a Netherite-style fast path (20-step micro-chain, 100 ms/step)"}
	r.Table.Header = []string{"execution model", "median E2E", "p99 E2E", "overhead vs pure compute"}
	const steps, perStep = 20, 100 * time.Millisecond
	pure := time.Duration(steps) * perStep
	var medians []time.Duration
	for _, cfg := range []struct {
		name   string
		params platform.AzureParams
	}{
		{"durable (paper-era DTFx)", base},
		{"netherite-style fast path", fast},
	} {
		e2e, err := runMicroChain(o, cfg.params, steps, perStep)
		if err != nil {
			return nil, err
		}
		med := e2e.Median()
		medians = append(medians, med)
		r.Table.AddRow(cfg.name, fmtDur(med), fmtDur(e2e.P99()),
			fmt.Sprintf("%.1fx", float64(med)/float64(pure)))
	}
	if len(medians) == 2 && medians[1] > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"fast path cuts median end-to-end latency by %.0f%% on dense workflows",
			(1-float64(medians[1])/float64(medians[0]))*100))
	}
	r.Notes = append(r.Notes,
		"paper §VI: Netherite 'introduces optimizations such as partitioning ... and committing the recovery logs into high performance devices'")
	return r, nil
}

// runMicroChain measures a dense sequential orchestration under the
// given Azure calibration.
func runMicroChain(o Options, zp platform.AzureParams, steps int, perStep time.Duration) (*obs.Samples, error) {
	k := sim.NewKernel(o.Seed)
	host := functions.NewHost(k, "micro", zp, &instr.Hooks{})
	hub := durable.NewHub(k, host, "micro")
	client := durable.NewClient(hub)

	if err := hub.RegisterActivity("step", 192, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(perStep)
		return in, nil
	}); err != nil {
		return nil, err
	}
	if err := hub.RegisterOrchestrator("chain", 150, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		v := input
		for i := 0; i < steps; i++ {
			out, err := ctx.CallActivity("step", v).Await()
			if err != nil {
				return nil, err
			}
			v = out
		}
		return v, nil
	}); err != nil {
		return nil, err
	}

	var e2e obs.Samples
	var runErr error
	iters := o.Iters
	k.Spawn("driver", func(p *sim.Proc) {
		defer host.Stop()
		for i := 0; i < iters; i++ {
			_, hd, err := client.Run(p, "chain", []byte("x"))
			if err != nil {
				runErr = err
				return
			}
			e2e.Add(hd.E2E())
			p.Sleep(30 * time.Second)
		}
	})
	k.Run()
	if runErr != nil {
		return nil, runErr
	}
	return &e2e, nil
}
