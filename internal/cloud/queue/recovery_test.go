package queue

import (
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs/instr"
	"statebench/internal/sim"
)

// drainFor dequeues until want messages were delivered or virtual time
// passes deadline, sleeping between empty polls so ghost copies have
// time to reappear.
func drainFor(p *sim.Proc, q *Queue, want int, deadline sim.Time) int {
	got := 0
	for got < want && p.Now() < deadline {
		if _, ok := q.TryDequeue(p); ok {
			got++
			continue
		}
		p.Sleep(500 * time.Millisecond)
	}
	return got
}

// TestDeliveredDuplicateBooksNoRecoveryDelay is the regression test for
// the RecoveryDelay accounting fix: a duplicated delivery SUCCEEDS — the
// consumer got the message and only the delete was lost — so its ghost
// copy is surplus traffic, not time anyone spent waiting for recovery.
// Before the fix, settleInvisible booked one full visibility timeout of
// RecoveryDelay per delivered duplicate, inflating the recovery metric
// by 30s per ghost that delayed nothing.
func TestDeliveredDuplicateBooksNoRecoveryDelay(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Duplicate, Rate: 1, MaxFaults: 3},
	}})
	q := New(k, "dup", chaosParams(10), &instr.Hooks{Chaos: inj})
	var got int
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := q.Enqueue(p, []byte{byte(i)}); err != nil {
				t.Errorf("Enqueue: %v", err)
				return
			}
		}
		// 3 originals + 3 ghost copies after the 2s visibility timeout.
		got = drainFor(p, q, 6, sim.Time(30*time.Second))
	})
	k.Run()
	if got != 6 {
		t.Fatalf("delivered %d messages, want 6 (3 originals + 3 ghosts)", got)
	}
	st := inj.Stats()
	if st.Duplicates != 3 {
		t.Fatalf("duplicates = %d, want 3", st.Duplicates)
	}
	if st.RecoveryDelay != 0 {
		t.Fatalf("RecoveryDelay = %v, want 0: delivered duplicates delayed nobody", st.RecoveryDelay)
	}
}

// TestRecoveryDelayBookedForFailedDeliveries pins the other side of the
// accounting: a genuine redelivery (the consumer crashed before
// acknowledging) makes the message wait out the full visibility timeout,
// and that wait IS recovery delay — exactly one visibility timeout per
// failed attempt.
func TestRecoveryDelayBookedForFailedDeliveries(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Redeliver, Rate: 1, MaxFaults: 2},
	}})
	q := New(k, "redeliver", chaosParams(10), &instr.Hooks{Chaos: inj})
	var got int
	k.Spawn("driver", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("m")); err != nil {
			t.Errorf("Enqueue: %v", err)
			return
		}
		got = drainFor(p, q, 1, sim.Time(30*time.Second))
	})
	k.Run()
	if got != 1 {
		t.Fatalf("delivered %d messages, want 1", got)
	}
	st := inj.Stats()
	if st.Redeliveries != 2 {
		t.Fatalf("redeliveries = %d, want 2", st.Redeliveries)
	}
	// chaosParams sets a 2s visibility timeout; two failed attempts each
	// book exactly one timeout.
	if want := 4 * time.Second; st.RecoveryDelay != want {
		t.Fatalf("RecoveryDelay = %v, want %v (one visibility timeout per failed attempt)", st.RecoveryDelay, want)
	}
}
