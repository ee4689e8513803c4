package queue

import (
	"errors"
	"slices"
	"testing"
	"time"

	"statebench/internal/obs/instr"
	"statebench/internal/sim"
)

func fixedParams() Params {
	return Params{
		OpLatency:  sim.Fixed{D: 5 * time.Millisecond},
		MaxPayload: 100,
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

// ms is shorthand for the millisecond instants in the listener tables.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// listenRun drives one Listen loop on a queue with a fixed 5 ms
// operation latency until stopAt, kicking it at each kicks instant and
// enqueueing one message at each sends instant. It returns the instants
// at which empty polls completed — found by probing the EmptyPolls
// counter every millisecond; probes are scheduled before the listener
// runs, so a probe at an instant sees the count before that instant's
// poll — and the instants of handled deliveries.
func listenRun(t *testing.T, maxPoll, stopAt time.Duration, kicks, sends []time.Duration) (empty, handled []time.Duration) {
	t.Helper()
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	kick := NewKick(k)
	stop := sim.NewFuture[struct{}](k)
	var seen int64
	for at := time.Duration(0); at <= stopAt; at += time.Millisecond {
		k.At(at, func() {
			if n := q.Stats().EmptyPolls; n != seen {
				if n != seen+1 {
					t.Errorf("%d empty polls within 1ms before %v", n-seen, at)
				}
				seen = n
				empty = append(empty, at-time.Millisecond)
			}
		})
	}
	for _, at := range kicks {
		k.At(at, kick.Kick)
	}
	for _, at := range sends {
		k.At(at, func() {
			if err := q.EnqueueFromKernel([]byte("m")); err != nil {
				t.Error(err)
			}
		})
	}
	k.At(stopAt, func() { stop.Complete(struct{}{}, nil) })
	k.Spawn("listener", func(p *sim.Proc) {
		q.Listen(p, maxPoll, kick, stop, func(p *sim.Proc, m *Message) {
			handled = append(handled, p.Now())
		})
	})
	k.Run()
	if k.LiveProcs() != 0 {
		t.Errorf("listener still live after stop")
	}
	return empty, handled
}

// TestPollBacksOffExponentially pins the listener's idle schedule: each
// poll costs 5 ms, the wait after an empty poll starts at 100 ms and
// doubles up to the cap, and a kick or a delivery polls again at once
// and resets the wait to 100 ms.
func TestPollBacksOffExponentially(t *testing.T) {
	cases := []struct {
		name        string
		maxPoll     time.Duration
		stopAt      time.Duration
		kicks       []time.Duration
		sends       []time.Duration
		wantEmpty   []time.Duration
		wantHandled []time.Duration
	}{{
		// Waits 100, 200, 400, 800 ms, then the 1 s cap.
		name:      "backoff-to-cap",
		maxPoll:   time.Second,
		stopAt:    5 * time.Second,
		wantEmpty: []time.Duration{ms(5), ms(110), ms(315), ms(720), ms(1525), ms(2530), ms(3535), ms(4540)},
	}, {
		// The 1 s wait from 1525 ms is cut short at 2000 ms.
		name:      "kick-while-waiting-resets",
		maxPoll:   time.Second,
		stopAt:    5 * time.Second,
		kicks:     []time.Duration{ms(2000)},
		wantEmpty: []time.Duration{ms(5), ms(110), ms(315), ms(720), ms(1525), ms(2005), ms(2110), ms(2315), ms(2720), ms(3525), ms(4530)},
	}, {
		// A kick during the 1520–1525 ms poll makes the next wait
		// return at once.
		name:      "kick-while-polling-resets",
		maxPoll:   time.Second,
		stopAt:    5 * time.Second,
		kicks:     []time.Duration{ms(1522)},
		wantEmpty: []time.Duration{ms(5), ms(110), ms(315), ms(720), ms(1525), ms(1530), ms(1635), ms(1840), ms(2245), ms(3050), ms(4055)},
	}, {
		// Visible at 1005 ms, found by the 1520 ms poll; the listener
		// polls again at once and restarts from 100 ms.
		name:        "delivery-resets",
		maxPoll:     time.Second,
		stopAt:      5 * time.Second,
		sends:       []time.Duration{ms(1000)},
		wantEmpty:   []time.Duration{ms(5), ms(110), ms(315), ms(720), ms(1530), ms(1635), ms(1840), ms(2245), ms(3050), ms(4055)},
		wantHandled: []time.Duration{ms(1525)},
	}, {
		// maxPoll <= 0 caps at 30 s: the 51.15 s poll is followed by a
		// 30 s wait, not 51.2 s.
		name:      "default-cap",
		maxPoll:   0,
		stopAt:    90 * time.Second,
		wantEmpty: []time.Duration{ms(5), ms(110), ms(315), ms(720), ms(1525), ms(3130), ms(6335), ms(12740), ms(25545), ms(51150), ms(81155)},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			empty, handled := listenRun(t, c.maxPoll, c.stopAt, c.kicks, c.sends)
			if !slices.Equal(empty, c.wantEmpty) {
				t.Errorf("empty polls at %v\nwant            %v", empty, c.wantEmpty)
			}
			if !slices.Equal(handled, c.wantHandled) {
				t.Errorf("handled at %v, want %v", handled, c.wantHandled)
			}
		})
	}
}

// TestPollStop: completing stop ends the listener at its next loop
// check, so Kernel.Run returns once the wait in progress times out.
func TestPollStop(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams(), &instr.Hooks{})
	stop := sim.NewFuture[struct{}](k)
	ran := false
	k.Spawn("poller", func(p *sim.Proc) {
		q.Listen(p, time.Second, NewKick(k), stop, func(*sim.Proc, *Message) {
			t.Error("handled a message from an empty queue")
		})
		ran = true
	})
	k.At(3*time.Second, func() { stop.Complete(struct{}{}, nil) })
	// Polls end at 5, 110, 315, 720, 1525 and 2530 ms; the 1 s wait
	// after the last spans the stop and the loop exits at 3530 ms.
	if end := k.Run(); end != ms(3530) {
		t.Fatalf("Kernel.Run returned at %v, want 3.53s", end)
	}
	if !ran || k.LiveProcs() != 0 {
		t.Fatal("listener did not return after stop")
	}
	if n := q.Stats().EmptyPolls; n != 6 {
		t.Fatalf("empty polls = %d, want 6", n)
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
