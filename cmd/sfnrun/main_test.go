package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// machine exercises a Task, a Map over its input, and a Pass state, so
// every echo-function registration path runs.
const machine = `{
  "StartAt": "Prep",
  "States": {
    "Prep": {"Type": "Task", "Resource": "prep", "Next": "Fan"},
    "Fan": {
      "Type": "Map", "ItemsPath": "$.items", "Next": "Done",
      "Iterator": {"StartAt": "Work", "States": {"Work": {"Type": "Task", "Resource": "work", "End": true}}}
    },
    "Done": {"Type": "Pass", "End": true}
  }
}`

// TestRunIsDeterministic runs the command at its default flags (plus
// the required definition) twice: both runs succeed, print a report,
// and print the same bytes.
func TestRunIsDeterministic(t *testing.T) {
	def := filepath.Join(t.TempDir(), "machine.json")
	if err := os.WriteFile(def, []byte(machine), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := run([]string{"-definition", def, "-input", `{"items":[1,2,3]}`}, &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(outs[0].Bytes(), []byte("status:       SUCCEEDED")) {
		t.Fatalf("unexpected report:\n%s", outs[0].String())
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("runs differ:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}

func TestRunRequiresDefinition(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("run without -definition succeeded")
	}
}
