package netherite_test

import (
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/azure/netherite"
	"statebench/internal/chaos"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// env is one simulated function app with a Durable hub on either the
// classic storage task hub or a Netherite store — the same shape the
// conformance table runs every scenario against twice.
type env struct {
	k      *sim.Kernel
	host   *functions.Host
	hub    *durable.Hub
	client *durable.Client
	store  *netherite.Store // nil on the classic hub
	inj    *chaos.Injector  // nil without a plan
}

// testParams mirrors the durable package's test fixture: all fixed
// distributions, so every scenario is deterministic for a given seed.
func testParams() platform.AzureParams {
	params := platform.DefaultAzure()
	params.HTTPTriggerRTT = sim.Fixed{D: 10 * time.Millisecond}
	params.InstanceColdStart = sim.Fixed{D: 500 * time.Millisecond}
	params.Dispatch = sim.Fixed{D: 5 * time.Millisecond}
	params.ScaleEvalInterval = 2 * time.Second
	params.ScaleOutStep = 2
	params.MaxInstances = 20
	params.IdleInstanceTimeout = 10 * time.Minute
	params.EntityOpOverhead = sim.Fixed{D: 20 * time.Millisecond}
	params.EntityStateRTT = sim.Fixed{D: 20 * time.Millisecond}
	params.HistoryReplayPerEvent = 5 * time.Millisecond
	return params
}

func newEnv(seed uint64, plan *chaos.Plan, mkHub func(k *sim.Kernel, h *functions.Host) (*durable.Hub, *netherite.Store)) *env {
	return newEnvParams(seed, plan, testParams(), mkHub)
}

func newEnvParams(seed uint64, plan *chaos.Plan, params platform.AzureParams, mkHub func(k *sim.Kernel, h *functions.Host) (*durable.Hub, *netherite.Store)) *env {
	k := sim.NewKernel(seed)
	host := functions.NewHost(k, "app", params, &instr.Hooks{})
	hub, store := mkHub(k, host)
	e := &env{k: k, host: host, hub: hub, client: durable.NewClient(hub), store: store}
	if plan != nil {
		e.inj = chaos.NewInjector(k, plan)
		host.Hooks().Chaos = e.inj
	}
	return e
}

// classicEnv builds the hub on the classic Azure Storage task hub.
func classicEnv(seed uint64, plan *chaos.Plan) *env {
	return newEnv(seed, plan, func(k *sim.Kernel, h *functions.Host) (*durable.Hub, *netherite.Store) {
		return durable.NewHub(k, h, "hub"), nil
	})
}

// netheriteEnv builds the hub on a Netherite store with the given
// partition count.
func netheriteEnv(seed uint64, partitions int, plan *chaos.Plan) *env {
	return newEnv(seed, plan, func(k *sim.Kernel, h *functions.Host) (*durable.Hub, *netherite.Store) {
		store := netherite.NewStore(k, "hub", partitions, h.Hooks())
		return durable.NewHubWithStore(k, h, "hub", store), store
	})
}

// drive runs fn on a client proc, stops the host, and runs the kernel
// to completion.
func (e *env) drive(fn func(p *sim.Proc)) {
	e.k.Spawn("client", func(p *sim.Proc) {
		fn(p)
		e.host.Stop()
	})
	e.k.Run()
}
