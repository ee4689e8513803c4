// Package awsflow lowers provider-neutral flow definitions to AWS: the
// Mono class becomes a single Lambda function, the Machine class
// becomes per-state Lambdas orchestrated by a Step Functions state
// machine compiled from the graph (Amazon States Language). Both
// lowerers self-register with the flow registry from init, the same
// discovery pattern the core provider registry uses.
package awsflow

import (
	"fmt"

	"statebench/internal/aws/sfn"
	"statebench/internal/cloud/blob"
	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/sim"
)

// providerName is the registered AWS provider display name.
const providerName = "AWS"

// defaultMemoryMB is the provisioned tier used when a node does not
// pin one — the paper's Lambda configurations default to 1536 MB.
const defaultMemoryMB = 1536

// maxTaskSeconds is Lambda's execution ceiling.
const maxTaskSeconds = 900

func init() {
	flow.RegisterLowerer(flow.MonoLowerer{
		Style:          core.AWSLambda,
		ProviderName:   providerName,
		MaxTaskSeconds: maxTaskSeconds,
		Store:          s3,
		Register: func(env *core.Env, st *flow.Stages, n *flow.Node) (core.Runner, error) {
			return flow.DeployFunction(env.AWS.Lambda, st, n, defaultMemoryMB)
		},
		Line: func(n *flow.Node) string {
			return fmt.Sprintf("lambda %s memory=%dMB consumed=%dMB code=%.1fMB stage=%s",
				n.Fn, n.MemoryMB(defaultMemoryMB), n.ConsumedMemMB, n.CodeSizeMB, n.Stage)
		},
	})
	flow.RegisterLowerer(machineLowerer{})
}

// s3 resolves the object store every AWS lowering binds to.
func s3(env *core.Env) *blob.Store { return env.AWS.S3 }

// --- Machine: Step Functions state machine (AWS-Step) ---

type machineLowerer struct{}

func (machineLowerer) Impl() core.Impl                { return core.AWSStep }
func (machineLowerer) Class() flow.Class              { return flow.Machine }
func (machineLowerer) Variant() string                { return "" }
func (machineLowerer) Provider() string               { return providerName }
func (machineLowerer) Blob(env *core.Env) *blob.Store { return s3(env) }

// Caps: SFN's 256 KB inter-state payload limit and Lambda's 900 s
// execution ceiling — the two AWS numbers the paper measures against.
func (machineLowerer) Caps() flow.Caps {
	return flow.Caps{PayloadBytes: 256 * 1024, MaxTaskSeconds: maxTaskSeconds}
}

func (machineLowerer) Lower(env *core.Env, def *flow.Definition, g *flow.Graph, st *flow.Stages) (core.Runner, error) {
	machine, err := buildASL(g)
	if err != nil {
		return nil, err
	}
	if err := flow.RegisterMachineTasks(env.AWS.Lambda, st, g, defaultMemoryMB); err != nil {
		return nil, err
	}
	name := def.MachineNameFor(g, providerName)
	if err := env.AWS.SFN.CreateStateMachine(name, machine); err != nil {
		return nil, err
	}
	return &stepRunner{env: env, machine: name, entry: def.EntryMap}, nil
}

// Program renders the compiled state machine as ASL JSON.
func (machineLowerer) Program(def *flow.Definition) (string, error) {
	machine, err := buildASL(def.Graphs[flow.Machine])
	if err != nil {
		return "", err
	}
	data, err := machine.Definition()
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}

// buildASL compiles a machine graph to an ASL state machine.
func buildASL(g *flow.Graph) (*sfn.StateMachine, error) {
	if err := flow.CheckMachine(g); err != nil {
		return nil, err
	}
	var retry []sfn.RetryPolicy
	if g.RetryAttempts > 0 {
		retry = []sfn.RetryPolicy{{ErrorEquals: []string{"States.ALL"}, MaxAttempts: g.RetryAttempts}}
	}
	states := make(map[string]*sfn.State, len(g.Nodes))
	for _, n := range g.Nodes {
		st, err := buildState(n, retry)
		if err != nil {
			return nil, err
		}
		states[n.Name] = st
	}
	return &sfn.StateMachine{
		Comment: g.Comment,
		StartAt: g.Start,
		States:  states,
	}, nil
}

// taskState builds the Task state for a task-shaped node (top-level,
// iterator, or branch). Terminal iterator/branch states set End.
func taskState(n *flow.Node, retry []sfn.RetryPolicy, end bool) *sfn.State {
	st := &sfn.State{Type: sfn.TypeTask, Resource: n.Fn, Retry: retry}
	if end {
		st.End = true
	}
	return st
}

func buildState(n *flow.Node, retry []sfn.RetryPolicy) (*sfn.State, error) {
	var st *sfn.State
	switch n.Kind {
	case flow.KindTask:
		st = taskState(n, retry, n.Next == "")
		if n.Next != "" {
			st.Next = n.Next
		}
		return st, nil
	case flow.KindMap:
		iterName := n.IterName
		if iterName == "" {
			iterName = n.Iter.Name
		}
		st = &sfn.State{
			Type:           sfn.TypeMap,
			ItemsPath:      "$." + n.ItemsField,
			ResultPath:     "$." + n.ResultField,
			MaxConcurrency: n.MaxConcurrency,
			Iterator: &sfn.StateMachine{
				StartAt: iterName,
				States:  map[string]*sfn.State{iterName: taskState(n.Iter, retry, true)},
			},
		}
	case flow.KindParallel:
		branches := make([]*sfn.StateMachine, len(n.Branches))
		for i, b := range n.Branches {
			branches[i] = &sfn.StateMachine{
				StartAt: b.Name,
				States:  map[string]*sfn.State{b.Name: taskState(b, retry, true)},
			}
		}
		st = &sfn.State{Type: sfn.TypeParallel, Branches: branches}
	case flow.KindChoice:
		rules := make([]sfn.ChoiceRule, len(n.Cases))
		for i, c := range n.Cases {
			rules[i] = sfn.ChoiceRule{
				Variable:                 c.Var,
				NumericLessThan:          c.NumLT,
				NumericGreaterThanEquals: c.NumGTE,
				StringEquals:             c.StrEq,
				Next:                     c.To,
			}
		}
		return &sfn.State{Type: sfn.TypeChoice, Choices: rules, Default: n.Default}, nil
	case flow.KindWait:
		st = &sfn.State{Type: sfn.TypeWait, Seconds: n.WaitSeconds}
	default:
		return nil, fmt.Errorf("awsflow: node %q: kind %s has no ASL lowering", n.Name, n.Kind)
	}
	if n.Next != "" {
		st.Next = n.Next
	} else {
		st.End = true
	}
	return st, nil
}

// stepRunner executes a Step Functions state machine per run.
type stepRunner struct {
	env     *core.Env
	machine string
	entry   func(run int64) map[string]any
	nextRun int64
}

// Invoke implements core.Runner.
func (r *stepRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	r.nextRun++
	exec, err := r.env.AWS.SFN.StartExecution(p, r.machine, r.entry(r.nextRun))
	if err != nil {
		return core.RunStats{}, err
	}
	return flow.ExecStats(exec.Duration(), exec.FirstTaskDelay, exec.Output, exec.Err), nil
}
