package main

import (
	"bytes"
	"testing"
	"time"
)

// TestRunIsDeterministic runs the example twice with an approval before
// the deadline: both runs succeed, ship the order, and print the same
// bytes.
func TestRunIsDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := run(&outs[i], 2*time.Minute, 10*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"outcome: order approved and shipped", "orchestrator episodes (replays): ", "billable storage transactions accrued."} {
		if !bytes.Contains(outs[0].Bytes(), []byte(want)) {
			t.Fatalf("report lacks %q:\n%s", want, outs[0].String())
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("runs differ:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}

// TestRunExpiresAfterDeadline approves too late: the durable timer wins
// the race and the order expires.
func TestRunExpiresAfterDeadline(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 20*time.Minute, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("outcome: order expired: no approval before the deadline")) {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
