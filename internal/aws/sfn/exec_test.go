package sfn

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"statebench/internal/aws/lambda"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// fixture builds a kernel + lambda + sfn with deterministic latencies.
func fixture() (*sim.Kernel, *lambda.Service, *Service) {
	k := sim.NewKernel(1)
	params := platform.DefaultAWS()
	params.InvokeRTT = sim.Fixed{D: time.Millisecond}
	params.ColdStartBase = sim.Fixed{D: 100 * time.Millisecond}
	params.CodeFetchBW = 0
	params.WarmStart = sim.Fixed{D: time.Millisecond}
	params.StepTransition = sim.Fixed{D: 10 * time.Millisecond}
	params.StepTaskDispatch = sim.Fixed{D: 20 * time.Millisecond}
	lsvc := lambda.New(k, params, &instr.Hooks{})
	return k, lsvc, New(k, params, lsvc)
}

// regDouble registers a lambda that doubles {"n": x}.
func regDouble(lsvc *lambda.Service, name string, busy time.Duration) {
	lsvc.MustRegister(lambda.Config{Name: name, MemoryMB: 128, Handler: func(ctx *lambda.Context, payload []byte) ([]byte, error) {
		var in map[string]any
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		ctx.Busy(busy)
		n, _ := in["n"].(float64)
		return json.Marshal(map[string]any{"n": n * 2})
	}})
}

func run(k *sim.Kernel, s *Service, machine string, input any) (*Execution, error) {
	var exec *Execution
	var err error
	k.Spawn("client", func(p *sim.Proc) { exec, err = s.StartExecution(p, machine, input) })
	k.Run()
	return exec, err
}

func TestTaskChain(t *testing.T) {
	k, lsvc, s := fixture()
	regDouble(lsvc, "double", 50*time.Millisecond)
	sm := &StateMachine{
		StartAt: "A",
		States: map[string]*State{
			"A": {Type: TypeTask, Resource: "double", Next: "B"},
			"B": {Type: TypeTask, Resource: "double", End: true},
		},
	}
	if err := s.CreateStateMachine("chain", sm); err != nil {
		t.Fatal(err)
	}
	exec, err := run(k, s, "chain", map[string]any{"n": float64(3)})
	if err != nil || exec.Err != nil {
		t.Fatalf("execution failed: %v %v", err, exec.Err)
	}
	out := exec.Output.(map[string]any)
	if out["n"] != float64(12) {
		t.Fatalf("output = %v, want n=12", out)
	}
	if exec.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", exec.Transitions)
	}
	if exec.Duration() <= 0 {
		t.Fatal("no duration recorded")
	}
}

func TestFirstTaskDelayIsColdStartMetric(t *testing.T) {
	k, lsvc, s := fixture()
	regDouble(lsvc, "double", 50*time.Millisecond)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "double", End: true},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "m", map[string]any{"n": float64(1)})
	// transition 10ms + dispatch 20ms + RTT 1ms + cold 100ms = 131ms.
	if exec.FirstTaskDelay != 131*time.Millisecond {
		t.Fatalf("FirstTaskDelay = %v, want 131ms", exec.FirstTaskDelay)
	}
}

func TestMapFanOutAndOrder(t *testing.T) {
	k, lsvc, s := fixture()
	lsvc.MustRegister(lambda.Config{Name: "inc", MemoryMB: 128, Handler: func(ctx *lambda.Context, payload []byte) ([]byte, error) {
		var n float64
		if err := json.Unmarshal(payload, &n); err != nil {
			return nil, err
		}
		// Larger items take longer, so completion order is reversed —
		// results must still come back in item order.
		ctx.Busy(time.Duration(100-int(n)) * time.Millisecond)
		return json.Marshal(n + 1)
	}})
	sm := &StateMachine{StartAt: "M", States: map[string]*State{
		"M": {
			Type: TypeMap, ItemsPath: "$.items", End: true,
			Iterator: &StateMachine{StartAt: "I", States: map[string]*State{
				"I": {Type: TypeTask, Resource: "inc", End: true},
			}},
		},
	}}
	if err := s.CreateStateMachine("map", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "map", map[string]any{"items": []any{float64(1), float64(2), float64(3)}})
	if exec.Err != nil {
		t.Fatal(exec.Err)
	}
	out := exec.Output.([]any)
	want := []float64{2, 3, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	// 1 Map state + 3 iterator Task states.
	if exec.Transitions != 4 {
		t.Fatalf("transitions = %d, want 4", exec.Transitions)
	}
}

func TestMapMaxConcurrencyLimitsParallelism(t *testing.T) {
	k, lsvc, s := fixture()
	lsvc.MustRegister(lambda.Config{Name: "sleep1s", MemoryMB: 128, Handler: func(ctx *lambda.Context, payload []byte) ([]byte, error) {
		ctx.Busy(time.Second)
		return []byte("1"), nil
	}})
	mkMachine := func(conc int) *StateMachine {
		return &StateMachine{StartAt: "M", States: map[string]*State{
			"M": {Type: TypeMap, ItemsPath: "$.items", MaxConcurrency: conc, End: true,
				Iterator: &StateMachine{StartAt: "I", States: map[string]*State{
					"I": {Type: TypeTask, Resource: "sleep1s", End: true},
				}}},
		}}
	}
	if err := s.CreateStateMachine("unbounded", mkMachine(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStateMachine("serial", mkMachine(1)); err != nil {
		t.Fatal(err)
	}
	items := make([]any, 4)
	for i := range items {
		items[i] = float64(i)
	}
	e1, _ := run(k, s, "unbounded", map[string]any{"items": items})
	k2, lsvc2, s2 := fixture()
	lsvc2.MustRegister(lambda.Config{Name: "sleep1s", MemoryMB: 128, Handler: func(ctx *lambda.Context, payload []byte) ([]byte, error) {
		ctx.Busy(time.Second)
		return []byte("1"), nil
	}})
	if err := s2.CreateStateMachine("serial", mkMachine(1)); err != nil {
		t.Fatal(err)
	}
	e2, _ := run(k2, s2, "serial", map[string]any{"items": items})
	if e1.Duration() >= e2.Duration() {
		t.Fatalf("unbounded (%v) not faster than serial (%v)", e1.Duration(), e2.Duration())
	}
	if e2.Duration() < 4*time.Second {
		t.Fatalf("serial map finished in %v, should be >= 4s", e2.Duration())
	}
}

func TestParallelBranches(t *testing.T) {
	k, lsvc, s := fixture()
	regDouble(lsvc, "double", 10*time.Millisecond)
	sm := &StateMachine{StartAt: "P", States: map[string]*State{
		"P": {Type: TypeParallel, End: true, Branches: []*StateMachine{
			{StartAt: "B1", States: map[string]*State{"B1": {Type: TypeTask, Resource: "double", End: true}}},
			{StartAt: "B2", States: map[string]*State{"B2": {Type: TypePass, Result: "fixed", End: true}}},
		}},
	}}
	if err := s.CreateStateMachine("par", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "par", map[string]any{"n": float64(5)})
	out := exec.Output.([]any)
	if out[0].(map[string]any)["n"] != float64(10) || out[1] != "fixed" {
		t.Fatalf("parallel out = %v", out)
	}
}

func TestChoiceAndWait(t *testing.T) {
	k, _, s := fixture()
	big := 10.0
	sm := &StateMachine{StartAt: "C", States: map[string]*State{
		"C": {Type: TypeChoice,
			Choices: []ChoiceRule{{Variable: "$.n", NumericGreaterThan: &big, Next: "Big"}},
			Default: "Small"},
		"Big":       {Type: TypePass, Result: "big", End: true},
		"Small":     {Type: TypeWait, Seconds: 2, Next: "SmallDone"},
		"SmallDone": {Type: TypePass, Result: "small", End: true},
	}}
	if err := s.CreateStateMachine("choice", sm); err != nil {
		t.Fatal(err)
	}
	e1, _ := run(k, s, "choice", map[string]any{"n": float64(99)})
	if e1.Output != "big" {
		t.Fatalf("out = %v", e1.Output)
	}
	k2, _, s2 := fixture()
	if err := s2.CreateStateMachine("choice", sm); err != nil {
		t.Fatal(err)
	}
	e2, _ := run(k2, s2, "choice", map[string]any{"n": float64(1)})
	if e2.Output != "small" {
		t.Fatalf("out = %v", e2.Output)
	}
	if e2.Duration() < 2*time.Second {
		t.Fatalf("Wait state did not wait: %v", e2.Duration())
	}
}

func TestFailState(t *testing.T) {
	k, _, s := fixture()
	sm := &StateMachine{StartAt: "F", States: map[string]*State{
		"F": {Type: TypeFail, Error: "Custom.Error", Cause: "because"},
	}}
	if err := s.CreateStateMachine("fail", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "fail", nil)
	var ee *ExecutionError
	if !errors.As(exec.Err, &ee) || ee.ErrorName != "Custom.Error" {
		t.Fatalf("err = %v", exec.Err)
	}
}

func TestResultPathMergesIntoInput(t *testing.T) {
	k, lsvc, s := fixture()
	regDouble(lsvc, "double", time.Millisecond)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "double", InputPath: "$.req", ResultPath: "$.resp", End: true},
	}}
	if err := s.CreateStateMachine("rp", sm); err != nil {
		t.Fatal(err)
	}
	exec, _ := run(k, s, "rp", map[string]any{"req": map[string]any{"n": float64(4)}, "keep": "me"})
	out := exec.Output.(map[string]any)
	if out["keep"] != "me" {
		t.Fatalf("ResultPath dropped original input: %v", out)
	}
	if out["resp"].(map[string]any)["n"] != float64(8) {
		t.Fatalf("resp = %v", out["resp"])
	}
}

func TestPayloadLimitFailsExecution(t *testing.T) {
	k, lsvc, s := fixture()
	regDouble(lsvc, "double", time.Millisecond)
	sm := &StateMachine{StartAt: "A", States: map[string]*State{
		"A": {Type: TypeTask, Resource: "double", End: true},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	big := make([]any, 0, 50000)
	for i := 0; i < 50000; i++ {
		big = append(big, "xxxxxxxxxx")
	}
	exec, _ := run(k, s, "m", map[string]any{"n": float64(1), "bulk": big})
	var ee *ExecutionError
	if !errors.As(exec.Err, &ee) || ee.ErrorName != "States.DataLimitExceeded" {
		t.Fatalf("err = %v, want DataLimitExceeded", exec.Err)
	}
}

func TestDefinitionRoundTrip(t *testing.T) {
	gt := 5.0
	sm := &StateMachine{
		Comment: "demo",
		StartAt: "C",
		States: map[string]*State{
			"C": {Type: TypeChoice, Choices: []ChoiceRule{{Variable: "$.n", NumericGreaterThan: &gt, Next: "T"}}, Default: "S"},
			"T": {Type: TypeTask, Resource: "fn", End: true},
			"S": {Type: TypeSucceed},
		},
	}
	data, err := sm.Definition()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDefinition(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.StartAt != "C" || len(back.States) != 3 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if *back.States["C"].Choices[0].NumericGreaterThan != 5 {
		t.Fatal("choice rule lost")
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	bad := []*StateMachine{
		{States: map[string]*State{"A": {Type: TypePass, End: true}}},                          // no StartAt
		{StartAt: "X", States: map[string]*State{"A": {Type: TypePass, End: true}}},            // StartAt missing
		{StartAt: "A", States: map[string]*State{"A": {Type: TypePass}}},                       // no Next/End
		{StartAt: "A", States: map[string]*State{"A": {Type: TypeTask, End: true}}},            // Task without Resource
		{StartAt: "A", States: map[string]*State{"A": {Type: TypePass, Next: "ghost"}}},        // dangling Next
		{StartAt: "A", States: map[string]*State{"A": {Type: TypeMap, End: true}}},             // Map without Iterator
		{StartAt: "A", States: map[string]*State{"A": {Type: TypeChoice}}},                     // Choice without rules
		{StartAt: "A", States: map[string]*State{"A": {Type: "Weird", End: true}}},             // unknown type
		{StartAt: "A", States: map[string]*State{"A": {Type: TypePass, Next: "A", End: true}}}, // Next+End
	}
	for i, sm := range bad {
		if err := sm.Validate(); err == nil {
			t.Errorf("case %d validated, want error", i)
		}
	}
}

func TestTransitionsBilledAcrossNestedMachines(t *testing.T) {
	k, lsvc, s := fixture()
	regDouble(lsvc, "double", time.Millisecond)
	sm := &StateMachine{StartAt: "M", States: map[string]*State{
		"M": {Type: TypeMap, ItemsPath: "$.items", Next: "After",
			Iterator: &StateMachine{StartAt: "I", States: map[string]*State{
				"I": {Type: TypeTask, Resource: "double", End: true},
			}}},
		"After": {Type: TypeSucceed},
	}}
	if err := s.CreateStateMachine("m", sm); err != nil {
		t.Fatal(err)
	}
	items := []any{map[string]any{"n": float64(1)}, map[string]any{"n": float64(2)}}
	exec, _ := run(k, s, "m", map[string]any{"items": items})
	// Map + 2 iterations + Succeed = 4 transitions.
	if exec.Transitions != 4 {
		t.Fatalf("transitions = %d, want 4", exec.Transitions)
	}
	if s.TotalTransitions != 4 {
		t.Fatalf("service total = %d", s.TotalTransitions)
	}
}
