package flow_test

import (
	"strings"
	"testing"

	"statebench/internal/core"
	"statebench/internal/flow"
	_ "statebench/internal/flow/lowerers"
	"statebench/internal/gcp"
)

// machineDefWith wraps one extra node into an otherwise lowerable
// Machine graph.
func machineDefWith(extra *flow.Node) *flow.Definition {
	g := &flow.Graph{Class: flow.Machine, Start: "First", Nodes: []*flow.Node{
		{Name: "First", Kind: flow.KindTask, Fn: "first", Stage: "s", Next: extra.Name},
		extra,
	}}
	return &flow.Definition{
		Name:   "machine-probe",
		Graphs: map[flow.Class]*flow.Graph{flow.Machine: g},
		Bind: func(flow.Binding) (*flow.Stages, error) {
			return &flow.Stages{Tasks: map[string]flow.StageFn{
				"s": func(_ flow.Act, in []byte) ([]byte, error) { return in, nil },
			}}, nil
		},
		Entry:    func(flow.Class, int64) []byte { return []byte(`{}`) },
		EntryMap: func(int64) map[string]any { return map[string]any{} },
	}
}

// TestMachineLowerersRejectDurableOnlyNodes: a sub-workflow or entity
// node — at the top level or as a map iterator — has no lowering on a
// managed state machine, so AWS-Step and GCP-Wflow both refuse the
// graph at deploy time, in Lower and in Program, rather than deploying
// a workflow that fails every run.
func TestMachineLowerersRejectDurableOnlyNodes(t *testing.T) {
	sub := &flow.Graph{Class: flow.Machine, Start: "In", MachineName: "inner",
		Nodes: []*flow.Node{{Name: "In", Kind: flow.KindTask, Fn: "in", Stage: "s"}}}
	cases := []struct {
		name string
		node *flow.Node
		want string
	}{
		{"sub", &flow.Node{Name: "Nested", Kind: flow.KindSub, SubGraph: sub},
			"flow: Nested: sub-workflow node has no state-machine lowering"},
		{"entity", &flow.Node{Name: "Count", Kind: flow.KindTask, Entity: "counter", EntityKey: "k", Op: "add"},
			"flow: Count: entity call has no state-machine lowering"},
		{"entity-iterator", &flow.Node{Name: "Each", Kind: flow.KindMap,
			Iter: &flow.Node{Name: "CountOne", Kind: flow.KindTask, Entity: "counter", EntityKey: "k", Op: "add"}},
			"flow: CountOne: entity call has no state-machine lowering"},
	}
	for _, c := range cases {
		def := machineDefWith(c.node)
		if err := flow.Validate(def); err != nil {
			t.Fatalf("%s: probe graph invalid: %v", c.name, err)
		}
		for _, impl := range []core.Impl{core.AWSStep, gcp.Wflow} {
			l, ok := flow.LowererFor(impl)
			if !ok {
				t.Fatalf("no lowerer for %s", impl)
			}
			if _, err := l.Program(def); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s/%s: Program err = %v, want %q", c.name, impl, err, c.want)
			}
			if _, err := flow.Deploy(core.NewEnv(1), def, impl); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s/%s: Deploy err = %v, want %q", c.name, impl, err, c.want)
			}
		}
	}
}
