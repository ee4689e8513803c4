package flow

import (
	"encoding/json"
	"fmt"
	"time"

	"statebench/internal/core"
)

// Executor is what one orchestrator backend (a GCP Workflows program, a
// Durable orchestrator) lends the shared graph interpreter: how to call
// a task, how to fan out, and how to sleep. Everything else — input
// selection, pure transforms, fan-out items and limits, joins, choices —
// is Run's, so every backend walks a graph with one semantics.
type Executor interface {
	// Call runs one task-shaped node (platform task, entity operation
	// or sub-workflow) on input and returns its output.
	Call(n *Node, input []byte) ([]byte, error)
	// CallAll issues nodes[i] on inputs[i], in index order, runs them
	// concurrently and returns their outputs in the same order.
	CallAll(nodes []*Node, inputs [][]byte) ([][]byte, error)
	// Sleep pauses the workflow for d of virtual time.
	Sleep(d time.Duration) error
}

// Run interprets g from its Start node until a node with no successor,
// executing every node through x, and returns the terminal payload.
// entry is the workflow's first payload (InputEntry reads it again).
func Run(x Executor, g *Graph, st *Stages, entry []byte) ([]byte, error) {
	cur := entry
	for name := g.Start; name != ""; {
		n := g.Node(name)
		in := InputFor(n, cur, entry)
		var err error
		switch n.Kind {
		case KindTask, KindSub:
			cur, err = runTask(x, st, n, in)
		case KindMap:
			cur, err = runMap(x, st, n, in, cur)
		case KindParallel:
			ins := make([][]byte, len(n.Branches))
			for i, b := range n.Branches {
				ins[i] = InputFor(b, cur, entry)
			}
			var outs [][]byte
			if outs, err = x.CallAll(n.Branches, ins); err == nil {
				cur, err = JoinOutputs(n, outs, cur)
			}
		case KindChoice:
			if name, err = EvalChoice(n, in); err != nil {
				return nil, err
			}
			continue
		case KindWait:
			err = x.Sleep(time.Duration(n.WaitSeconds * float64(time.Second)))
		default:
			err = fmt.Errorf("flow: %s: unknown node kind %s", n.Name, n.Kind)
		}
		if err != nil {
			return nil, err
		}
		name = n.Next
	}
	return cur, nil
}

// runTask runs a task-shaped node: a pure transform inline in the
// orchestrator (no platform resource, no simulated time), anything else
// through the executor.
func runTask(x Executor, st *Stages, n *Node, in []byte) ([]byte, error) {
	if !n.Pure {
		return x.Call(n, in)
	}
	stage, err := st.Task(n.Stage)
	if err != nil {
		return nil, err
	}
	return stage(nil, in)
}

// runMap fans a map node's iterator out over its items — one call at a
// time when Serial, concurrently otherwise — and joins the outputs.
func runMap(x Executor, st *Stages, n *Node, in, cur []byte) ([]byte, error) {
	items, err := Items(n, st, in)
	if err != nil {
		return nil, err
	}
	if len(items) > MaxFanOut {
		return nil, fmt.Errorf("flow: %s: fan-out %d exceeds limit %d", n.Name, len(items), MaxFanOut)
	}
	var outs [][]byte
	if n.Serial {
		outs = make([][]byte, len(items))
		for i, it := range items {
			if outs[i], err = x.Call(n.Iter, it); err != nil {
				return nil, err
			}
		}
	} else {
		iters := make([]*Node, len(items))
		for i := range iters {
			iters[i] = n.Iter
		}
		if outs, err = x.CallAll(iters, items); err != nil {
			return nil, err
		}
	}
	return JoinOutputs(n, outs, cur)
}

// ExecStats maps one managed-workflow execution (an SFN state machine
// or a GCP Workflows program) to RunStats: the output is re-marshalled
// on success, and the delay until the first task began is the cold
// start (0 when no task ran).
func ExecStats(e2e, firstCall time.Duration, output any, err error) core.RunStats {
	var out []byte
	if err == nil {
		out, _ = json.Marshal(output)
	}
	return core.RunStats{E2E: e2e, ColdStart: max(firstCall, 0), Output: out, Err: err}
}
