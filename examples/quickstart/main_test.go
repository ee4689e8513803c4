package main

import (
	"bytes"
	"testing"
)

// TestRunIsDeterministic runs the example twice: both runs succeed,
// print the comparison, and print the same bytes.
func TestRunIsDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := run(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(outs[0].Bytes(), []byte("AWS Step Functions: ")) || !bytes.Contains(outs[0].Bytes(), []byte("Azure Durable: ")) {
		t.Fatalf("unexpected report:\n%s", outs[0].String())
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("runs differ:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}
