// Package gcpflow lowers provider-neutral flow definitions to GCP: the
// Mono class becomes a single Cloud Function and the Machine class
// becomes per-step Cloud Functions driven by a GCP Workflows program
// interpreting the graph. Where awsflow compiles the Machine graph to
// an ASL document, the Workflows backend takes an executable
// definition, so the compiled artifact here is the shared flow.Run
// interpreter closed over the graph, calling through the Workflows Ctx.
package gcpflow

import (
	"encoding/json"
	"fmt"
	"time"

	"statebench/internal/cloud/blob"
	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/gcp"
	"statebench/internal/sim"
)

// providerName is the registered GCP provider display name.
const providerName = "GCP"

// defaultMemoryMB is the provisioned tier used when a node does not pin
// one — the paper's Cloud Functions configurations default to 2048 MB.
const defaultMemoryMB = 2048

// Cloud Functions (1st gen) caps executions at 540 s; Workflows
// arguments are capped at 512 KB.
const (
	payloadCapBytes = 512 * 1024
	maxTaskSeconds  = 540
)

func init() {
	flow.RegisterLowerer(flow.MonoLowerer{
		Style:          gcp.Func,
		ProviderName:   providerName,
		MaxTaskSeconds: maxTaskSeconds,
		Store:          gcs,
		Register: func(env *core.Env, st *flow.Stages, n *flow.Node) (core.Runner, error) {
			return flow.DeployFunction(gcp.FromEnv(env).Functions, st, n, defaultMemoryMB)
		},
		Line: func(n *flow.Node) string {
			return fmt.Sprintf("function %s memory=%dMB consumed=%dMB code=%.1fMB stage=%s",
				n.Fn, n.MemoryMB(defaultMemoryMB), n.ConsumedMemMB, n.CodeSizeMB, n.Stage)
		},
	})
	flow.RegisterLowerer(wflowLowerer{})
}

// gcs resolves the object store every GCP lowering binds to.
func gcs(env *core.Env) *blob.Store { return gcp.FromEnv(env).GCS }

// --- Machine: GCP Workflows program (GCP-Wflow) ---

type wflowLowerer struct{}

func (wflowLowerer) Impl() core.Impl                { return gcp.Wflow }
func (wflowLowerer) Class() flow.Class              { return flow.Machine }
func (wflowLowerer) Variant() string                { return "" }
func (wflowLowerer) Provider() string               { return providerName }
func (wflowLowerer) Blob(env *core.Env) *blob.Store { return gcs(env) }
func (wflowLowerer) Caps() flow.Caps {
	return flow.Caps{PayloadBytes: payloadCapBytes, MaxTaskSeconds: maxTaskSeconds}
}

func (wflowLowerer) Lower(env *core.Env, def *flow.Definition, g *flow.Graph, st *flow.Stages) (core.Runner, error) {
	if err := flow.CheckMachine(g); err != nil {
		return nil, err
	}
	gc := gcp.FromEnv(env)
	if err := flow.RegisterMachineTasks(gc.Functions, st, g, defaultMemoryMB); err != nil {
		return nil, err
	}
	name := def.MachineNameFor(g, providerName)
	if err := gc.Workflows.Create(name, wfDefinition(def, g, st)); err != nil {
		return nil, err
	}
	return &gwfRunner{gc: gc, wf: name, entry: def.EntryMap}, nil
}

// Program renders the deterministic step plan of the Workflows program.
func (wflowLowerer) Program(def *flow.Definition) (string, error) {
	g := def.Graphs[flow.Machine]
	if err := flow.CheckMachine(g); err != nil {
		return "", err
	}
	out := fmt.Sprintf("workflow %s\n", def.MachineNameFor(g, providerName))
	for _, n := range g.Nodes {
		out += programStep(n, "  ")
	}
	return out, nil
}

func programStep(n *flow.Node, indent string) string {
	switch n.Kind {
	case flow.KindTask:
		return fmt.Sprintf("%sstep %s: call %s memory=%dMB\n", indent, n.Name, n.Fn, n.MemoryMB(defaultMemoryMB))
	case flow.KindMap:
		return fmt.Sprintf("%sstep %s: parallel map\n", indent, n.Name) + programStep(n.Iter, indent+"  ")
	case flow.KindParallel:
		out := fmt.Sprintf("%sstep %s: parallel\n", indent, n.Name)
		for _, b := range n.Branches {
			out += programStep(b, indent+"  ")
		}
		return out
	case flow.KindChoice:
		return fmt.Sprintf("%sstep %s: switch (%d cases)\n", indent, n.Name, len(n.Cases))
	case flow.KindWait:
		return fmt.Sprintf("%sstep %s: sleep %gs\n", indent, n.Name, n.WaitSeconds)
	}
	return fmt.Sprintf("%sstep %s: %s\n", indent, n.Name, n.Kind)
}

// wfDefinition builds the Workflows program: the shared flow
// interpreter walking the machine graph against the Workflows Ctx.
func wfDefinition(def *flow.Definition, g *flow.Graph, st *flow.Stages) gcp.Definition {
	return func(ctx *gcp.Ctx, input map[string]any) (map[string]any, error) {
		run, _ := input["run"].(float64)
		last, err := flow.Run(wfExec{ctx}, g, st, def.Entry(flow.Machine, int64(run)))
		if err != nil {
			return nil, err
		}
		if def.Finish != nil {
			return def.Finish(last)
		}
		var res map[string]any
		if err := json.Unmarshal(last, &res); err != nil {
			return nil, err
		}
		return res, nil
	}
}

// wfExec is the flow.Executor of a Workflows program: every task is a
// Cloud Function call, fan-outs are a parallel block, and waits sleep
// the execution.
type wfExec struct{ ctx *gcp.Ctx }

func (x wfExec) Call(n *flow.Node, input []byte) ([]byte, error) { return x.ctx.Call(n.Fn, input) }

func (x wfExec) CallAll(nodes []*flow.Node, inputs [][]byte) ([][]byte, error) {
	outs := make([][]byte, len(nodes))
	branches := make([]func(bc *gcp.Ctx) error, len(nodes))
	for i, n := range nodes {
		branches[i] = func(bc *gcp.Ctx) error {
			out, err := bc.Call(n.Fn, inputs[i])
			outs[i] = out
			return err
		}
	}
	if err := x.ctx.Parallel(branches...); err != nil {
		return nil, err
	}
	return outs, nil
}

func (x wfExec) Sleep(d time.Duration) error {
	x.ctx.Proc().Sleep(d)
	return nil
}

// gwfRunner executes a Workflows program per run.
type gwfRunner struct {
	gc      *gcp.Cloud
	wf      string
	entry   func(run int64) map[string]any
	nextRun int64
}

// Invoke implements core.Runner.
func (r *gwfRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	r.nextRun++
	exec, err := r.gc.Workflows.Execute(p, r.wf, r.entry(r.nextRun))
	if err != nil {
		return core.RunStats{}, err
	}
	return flow.ExecStats(exec.Duration(), exec.FirstCallDelay, exec.Output, exec.Err), nil
}
