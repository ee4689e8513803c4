// Command sfnrun executes an Amazon-States-Language state machine
// definition (JSON) against the simulated Step Functions service, with
// stub Lambda functions that echo their input after a configurable
// busy time. It demonstrates the ASL engine in isolation.
//
// Usage:
//
//	sfnrun -definition machine.json [-input '{"n":1}'] [-busy 100ms]
//
// Every Task state's Resource is auto-registered as an echo function.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"statebench/internal/aws/lambda"
	"statebench/internal/aws/sfn"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sfnrun:", err)
		os.Exit(1)
	}
}

// run parses args, executes the definition, and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sfnrun", flag.ContinueOnError)
	defPath := fs.String("definition", "", "path to ASL JSON definition (required)")
	inputJSON := fs.String("input", "{}", "execution input (JSON)")
	busy := fs.Duration("busy", 100*time.Millisecond, "simulated compute per task")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *defPath == "" {
		return errors.New("-definition is required")
	}
	data, err := os.ReadFile(*defPath)
	if err != nil {
		return err
	}
	machine, err := sfn.ParseDefinition(data)
	if err != nil {
		return err
	}
	var input any
	if err := json.Unmarshal([]byte(*inputJSON), &input); err != nil {
		return fmt.Errorf("bad -input: %w", err)
	}

	k := sim.NewKernel(*seed)
	params := platform.DefaultAWS()
	lsvc := lambda.New(k, params, &instr.Hooks{})
	svc := sfn.New(k, params, lsvc)

	// Register an echo function for every Task resource.
	registerTasks(machine, lsvc, *busy)
	if err := svc.CreateStateMachine("main", machine); err != nil {
		return err
	}

	var exec *sfn.Execution
	k.Spawn("client", func(p *sim.Proc) {
		exec, err = svc.StartExecution(p, "main", input)
	})
	k.Run()
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(exec.Output, "", "  ")
	fmt.Fprintf(w, "status:       %v\n", statusOf(exec))
	fmt.Fprintf(w, "duration:     %v\n", exec.Duration())
	fmt.Fprintf(w, "transitions:  %d\n", exec.Transitions)
	fmt.Fprintf(w, "output:       %s\n", out)
	fmt.Fprintln(w, "history:")
	for _, ev := range exec.History {
		fmt.Fprintf(w, "  %-12v %-20s %s\n", ev.At, ev.Type, ev.State)
	}
	return nil
}

func statusOf(e *sfn.Execution) string {
	if e.Err != nil {
		return "FAILED: " + e.Err.Error()
	}
	return "SUCCEEDED"
}

// registerTasks walks the machine and registers an echo Lambda for each
// distinct Task resource.
func registerTasks(m *sfn.StateMachine, lsvc *lambda.Service, busy time.Duration) {
	for _, st := range m.States {
		if st.Type == sfn.TypeTask {
			name := st.Resource
			if _, exists := lsvc.Function(name); !exists {
				lsvc.MustRegister(lambda.Config{
					Name: name, MemoryMB: 512,
					Handler: func(ctx *lambda.Context, payload []byte) ([]byte, error) {
						ctx.Busy(busy)
						return payload, nil
					},
				})
			}
		}
		if st.Iterator != nil {
			registerTasks(st.Iterator, lsvc, busy)
		}
		for _, b := range st.Branches {
			registerTasks(b, lsvc, busy)
		}
	}
}
