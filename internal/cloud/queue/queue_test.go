package queue

import (
	"errors"
	"testing"
	"time"

	"statebench/internal/obs/instr"
	"statebench/internal/sim"
)

func fixedParams() Params {
	return Params{
		OpLatency:   sim.Fixed{D: 5 * time.Millisecond},
		MaxPayload:  100,
		MinPoll:     100 * time.Millisecond,
		MaxPoll:     time.Second,
		PollBackoff: 2,
	}
}

func TestEnqueueDequeueFIFO(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	var got []string
	k.Spawn("c", func(p *sim.Proc) {
		for _, s := range []string{"a", "b", "c"} {
			if err := q.Enqueue(p, []byte(s)); err != nil {
				t.Errorf("Enqueue: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			m, ok := q.TryDequeue(p)
			if !ok {
				t.Error("TryDequeue empty")
				return
			}
			got = append(got, string(m.Body))
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestPayloadLimit(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	var err error
	k.Spawn("c", func(p *sim.Proc) { err = q.Enqueue(p, make([]byte, 101)) })
	k.Run()
	var tooBig *PayloadTooLargeError
	if !errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want PayloadTooLargeError", err)
	}
	if tooBig.Size != 101 || tooBig.Limit != 100 {
		t.Fatalf("error detail = %+v", tooBig)
	}
	if q.Len() != 0 {
		t.Fatal("oversized message was enqueued")
	}
}

func TestEmptyPollsAreMetered(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, ok := q.TryDequeue(p); ok {
				t.Error("dequeued from empty queue")
			}
		}
	})
	k.Run()
	st := q.Stats()
	if st.EmptyPolls != 5 {
		t.Fatalf("empty polls = %d, want 5", st.EmptyPolls)
	}
	if st.Transactions() != 5 {
		t.Fatalf("transactions = %d, want 5 (idle polling is billable)", st.Transactions())
	}
}

func TestTransactionAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	k.Spawn("c", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("x")); err != nil {
			t.Errorf("Enqueue: %v", err)
		}
		if _, ok := q.TryDequeue(p); !ok {
			t.Error("dequeue failed")
		}
	})
	k.Run()
	st := q.Stats()
	// 1 enqueue + 2 (get+delete) for the dequeue.
	if st.Transactions() != 3 {
		t.Fatalf("transactions = %d, want 3", st.Transactions())
	}
}

func TestPollBacksOffExponentially(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	var got *Message
	var doneAt time.Duration
	k.Spawn("poller", func(p *sim.Proc) {
		m, ok := q.Poll(p, nil)
		if !ok {
			t.Error("poll aborted")
		}
		got = m
		doneAt = p.Now()
	})
	// Message appears at t=10s; by then poll interval is capped at 1s.
	k.At(10*time.Second, func() {
		if err := q.EnqueueFromKernel([]byte("late")); err != nil {
			t.Errorf("EnqueueFromKernel: %v", err)
		}
	})
	k.Run()
	if got == nil || string(got.Body) != "late" {
		t.Fatalf("got %v", got)
	}
	// Polls at 0, then sleeps 100ms, 200, 400, 800, 1000, 1000, ...
	// Must find the message within MaxPoll+opLatency of its arrival.
	if doneAt > 10*time.Second+time.Second+100*time.Millisecond {
		t.Fatalf("found at %v, exceeds max poll window", doneAt)
	}
	if q.Stats().EmptyPolls < 5 {
		t.Fatalf("empty polls = %d, expected several while idle", q.Stats().EmptyPolls)
	}
}

func TestPollStop(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	stop := sim.NewFuture[struct{}](k)
	var ok bool
	ran := false
	k.Spawn("poller", func(p *sim.Proc) {
		_, ok = q.Poll(p, stop)
		ran = true
	})
	k.At(3*time.Second, func() { stop.Complete(struct{}{}, nil) })
	k.Run()
	if !ran {
		t.Fatal("poller never returned")
	}
	if ok {
		t.Fatal("poll returned a message after stop")
	}
}

func TestMessageMetadata(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	k.Spawn("c", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("x")); err != nil {
			t.Errorf("enqueue: %v", err)
		}
		enqueuedAt := p.Now()
		p.Sleep(2 * time.Second)
		if q.PeekAge(p.Now()) != 2*time.Second {
			t.Errorf("PeekAge = %v", q.PeekAge(p.Now()))
		}
		m, _ := q.TryDequeue(p)
		if m.EnqueuedAt != enqueuedAt {
			t.Errorf("EnqueuedAt = %v, want %v", m.EnqueuedAt, enqueuedAt)
		}
		if m.Dequeues != 1 {
			t.Errorf("Dequeues = %d", m.Dequeues)
		}
	})
	k.Run()
}
