package main

import (
	"bytes"
	"testing"
)

// TestRunIsDeterministic runs the pipeline twice at the default worker
// count: both runs pass the ground-truth recall check, print a report,
// and print the same bytes.
func TestRunIsDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := run(&outs[i], 8); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(outs[0].Bytes(), []byte("matches the paper's Fig 5 pipeline")) {
		t.Fatalf("unexpected report:\n%s", outs[0].String())
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("runs differ:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}
