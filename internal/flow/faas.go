package flow

import (
	"statebench/internal/core"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// This file holds the lowering pieces shared by the per-request
// providers (AWS Lambda, GCP Cloud Functions): both deploy task nodes
// as functions on a platform.FaaS and run the Mono class as one
// synchronous invoke.

// MemoryMB resolves a node's provisioned memory tier: its pinned MemMB,
// or the provider's default.
func (n *Node) MemoryMB(defaultMB int) int {
	if n.MemMB > 0 {
		return n.MemMB
	}
	return defaultMB
}

// RegisterTask installs one task node on svc as a function wrapping its
// bound stage; defaultMemMB is the provider's tier for nodes that pin
// none.
func RegisterTask(svc *platform.FaaS, st *Stages, n *Node, defaultMemMB int) error {
	stage, err := st.Task(n.Stage)
	if err != nil {
		return err
	}
	_, err = svc.Register(platform.FunctionConfig{
		Name:          n.Fn,
		MemoryMB:      n.MemoryMB(defaultMemMB),
		ConsumedMemMB: n.ConsumedMemMB,
		CodeSizeMB:    n.CodeSizeMB,
		Handler: func(ctx *platform.Context, input []byte) ([]byte, error) {
			return stage(ctx, input)
		},
	})
	return err
}

// RegisterMachineTasks installs every function task of a Machine graph
// on svc in node order, map iterators and parallel branches where their
// parent appears. Pure transforms run in the orchestrator and register
// nothing.
func RegisterMachineTasks(svc *platform.FaaS, st *Stages, g *Graph, defaultMemMB int) error {
	for _, n := range allNodes(g) {
		if n.Kind != KindTask || n.Pure {
			continue
		}
		if err := RegisterTask(svc, st, n, defaultMemMB); err != nil {
			return err
		}
	}
	return nil
}

// DeployFunction installs a Mono graph's one task node on svc and
// returns the runner that invokes it.
func DeployFunction(svc *platform.FaaS, st *Stages, n *Node, defaultMemMB int) (core.Runner, error) {
	if err := RegisterTask(svc, st, n, defaultMemMB); err != nil {
		return nil, err
	}
	return &FunctionRunner{Svc: svc, Fn: n.Fn}, nil
}

// FunctionRunner runs a Mono deployment: one synchronous invoke of a
// single function.
type FunctionRunner struct {
	Svc *platform.FaaS
	Fn  string
}

// Invoke implements core.Runner.
func (r *FunctionRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	inv, err := r.Svc.Invoke(p, r.Fn, nil)
	if err != nil {
		return core.RunStats{}, err
	}
	return core.RunStats{
		E2E:       inv.Total,
		ColdStart: inv.ColdStartDelay,
		ExecTime:  inv.ExecTime,
		Output:    inv.Output,
		Err:       inv.Err,
	}, nil
}
