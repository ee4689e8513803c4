package main

import (
	"bytes"
	"testing"
)

// TestRunIsDeterministic runs the example twice: both runs succeed,
// print both workflow tables with a row per style, and print the same
// bytes.
func TestRunIsDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := run(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{
		"ML training workflow (small dataset, 10 warm iterations):",
		"ML inference workflow:",
		"\nAWS-Lambda ", "\nAWS-Step ", "\nAz-Func ", "\nAz-Queue ", "\nAz-Dorch ", "\nAz-Dent ",
	} {
		if !bytes.Contains(outs[0].Bytes(), []byte(want)) {
			t.Fatalf("report lacks %q:\n%s", want, outs[0].String())
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("runs differ:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}
