package flow

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// recordingExec is a fake Executor: every call answers with a JSON
// string naming the node and its input, and every operation is logged
// in issue order.
type recordingExec struct {
	log    []string
	failAt string // node name whose Call fails
}

func answer(n *Node, in []byte) []byte { return []byte(fmt.Sprintf("%q", n.Name+"("+string(in)+")")) }

func (x *recordingExec) Call(n *Node, in []byte) ([]byte, error) {
	x.log = append(x.log, fmt.Sprintf("call %s %s", n.Name, in))
	if n.Name == x.failAt {
		return nil, errors.New("boom")
	}
	return answer(n, in), nil
}

func (x *recordingExec) CallAll(nodes []*Node, ins [][]byte) ([][]byte, error) {
	outs := make([][]byte, len(nodes))
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = fmt.Sprintf("%s %s", n.Name, ins[i])
		outs[i] = answer(n, ins[i])
	}
	x.log = append(x.log, "all ["+strings.Join(parts, ", ")+"]")
	return outs, nil
}

func (x *recordingExec) Sleep(d time.Duration) error {
	x.log = append(x.log, "sleep "+d.String())
	return nil
}

// everyKindGraph chains one node of every kind: task, pure task,
// serial map, parallel map, parallel, choice, wait, sub.
func everyKindGraph(fanWidth int) (*Graph, *Stages) {
	wait := "wait"
	g := &Graph{Class: DurableOrch, Start: "Start", Nodes: []*Node{
		{Name: "Start", Kind: KindTask, Fn: "f-start", Stage: "s", Next: "Tag"},
		{Name: "Tag", Kind: KindTask, Pure: true, Stage: "tag", Next: "Each"},
		{Name: "Each", Kind: KindMap, ItemsField: "xs", Serial: true, Next: "Fan",
			Iter: &Node{Name: "EachOne", Kind: KindTask, Fn: "f-each", Stage: "s"}},
		{Name: "Fan", Kind: KindMap, Fan: "fan", Join: JoinEnvelope, ResultField: "r", Next: "Both",
			Iter: &Node{Name: "FanOne", Kind: KindTask, Fn: "f-fan", Stage: "s"}},
		{Name: "Both", Kind: KindParallel, Join: JoinArray, Next: "Choose", Branches: []*Node{
			{Name: "Left", Kind: KindTask, Fn: "f-left", Stage: "s"},
			{Name: "Right", Kind: KindTask, Fn: "f-right", Stage: "s", Input: InputEntry},
		}},
		{Name: "Choose", Kind: KindChoice, Input: InputEntry, Default: "Sub",
			Cases: []ChoiceCase{{Var: "$.go", StrEq: &wait, To: "Pause"}}},
		{Name: "Pause", Kind: KindWait, WaitSeconds: 1.5, Next: "Sub"},
		{Name: "Sub", Kind: KindSub, SubGraph: &Graph{Class: DurableOrch, Start: "Inner", MachineName: "sub",
			Nodes: []*Node{{Name: "Inner", Kind: KindTask, Fn: "f-inner", Stage: "s"}}}},
	}}
	st := &Stages{
		Tasks: map[string]StageFn{
			"tag": func(a Act, in []byte) ([]byte, error) {
				if a != nil {
					return nil, errors.New("pure stage got an Act")
				}
				return []byte(`{"xs":[1,2],"from":` + string(in) + `}`), nil
			},
		},
		Fans: map[string]FanFn{
			"fan": func([]byte) ([][]byte, error) {
				items := make([][]byte, fanWidth)
				for i := range items {
					items[i] = []byte(fmt.Sprint(i))
				}
				return items, nil
			},
		},
	}
	return g, st
}

// TestRunWalksEveryKind pins the interpreter's call sequence and join
// results: the pure task runs inline (no executor call), the serial map
// calls one item at a time, the parallel map and the parallel node each
// issue one CallAll in index order, the choice reads the entry payload,
// and the sub node is a plain Call.
func TestRunWalksEveryKind(t *testing.T) {
	g, st := everyKindGraph(3)
	if err := Validate(&Definition{Name: "t", Graphs: map[Class]*Graph{DurableOrch: g}}); err != nil {
		t.Fatal(err)
	}
	x := &recordingExec{}
	out, err := Run(x, g, st, []byte(`{"go":"wait"}`))
	if err != nil {
		t.Fatal(err)
	}
	fanOut := `{"r":["FanOne(0)","FanOne(1)","FanOne(2)"]}`
	want := []string{
		`call Start {"go":"wait"}`,
		`call EachOne 1`,
		`call EachOne 2`,
		`all [FanOne 0, FanOne 1, FanOne 2]`,
		`all [Left ` + fanOut + `, Right {"go":"wait"}]`,
		`sleep 1.5s`,
		`call Sub ["Left(` + strings.ReplaceAll(fanOut, `"`, `\"`) + `)","Right({\"go\":\"wait\"})"]`,
	}
	if got := strings.Join(x.log, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("call sequence:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if !strings.HasPrefix(string(out), `"Sub([`) {
		t.Fatalf("terminal payload = %s, want the sub node's output", out)
	}
}

// TestRunSerialMapJoin pins the serial map's JoinArray output: the
// iterator outputs in item order, embedded verbatim.
func TestRunSerialMapJoin(t *testing.T) {
	g, st := everyKindGraph(3)
	g.Node("Each").Next = ""
	out, err := Run(&recordingExec{}, g, st, []byte(`{"go":"wait"}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := `["EachOne(1)","EachOne(2)"]`; string(out) != want {
		t.Fatalf("join = %s, want %s", out, want)
	}
}

// TestRunChoiceDefault takes the choice's default edge, skipping the
// wait.
func TestRunChoiceDefault(t *testing.T) {
	g, st := everyKindGraph(1)
	x := &recordingExec{}
	if _, err := Run(x, g, st, []byte(`{"go":"on"}`)); err != nil {
		t.Fatal(err)
	}
	for _, l := range x.log {
		if strings.HasPrefix(l, "sleep") {
			t.Fatalf("default edge still slept: %v", x.log)
		}
	}
	if last := x.log[len(x.log)-1]; !strings.HasPrefix(last, "call Sub ") {
		t.Fatalf("last op = %q, want the sub call", last)
	}
}

// TestRunFanOutLimit fails a data-dependent fan wider than MaxFanOut at
// run time, before any of its items is issued.
func TestRunFanOutLimit(t *testing.T) {
	g, st := everyKindGraph(MaxFanOut + 1)
	x := &recordingExec{}
	_, err := Run(x, g, st, []byte(`{"go":"wait"}`))
	if err == nil || err.Error() != "flow: Fan: fan-out 1025 exceeds limit 1024" {
		t.Fatalf("err = %v", err)
	}
	if last := x.log[len(x.log)-1]; last != "call EachOne 2" {
		t.Fatalf("last op = %q: the over-wide fan issued calls", last)
	}
}

// TestRunStopsAtFirstError aborts the walk on a failing call.
func TestRunStopsAtFirstError(t *testing.T) {
	g, st := everyKindGraph(3)
	x := &recordingExec{failAt: "EachOne"}
	if _, err := Run(x, g, st, []byte(`{"go":"wait"}`)); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if len(x.log) != 2 {
		t.Fatalf("ops after the failure: %v", x.log)
	}
}
