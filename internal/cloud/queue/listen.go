package queue

import (
	"time"

	"statebench/internal/sim"
)

// minPoll is a listener's first idle back-off interval, and the one it
// returns to after every delivery or kick.
const minPoll = 100 * time.Millisecond

// defaultMaxPoll caps the back-off when Listen is given no cap: the
// Durable Task Framework's 30 s default.
const defaultMaxPoll = 30 * time.Second

// Kick is a listener's wake signal. Senders that know work is coming
// (a local enqueue, activity on the app) kick it, so the listener polls
// again at once and its back-off resets, while idle polling still
// happens — and is billed — at the adaptive interval.
type Kick struct {
	k   *sim.Kernel
	fut *sim.Future[struct{}]
}

// NewKick returns an unfired wake signal bound to k.
func NewKick(k *sim.Kernel) *Kick {
	return &Kick{k: k, fut: sim.NewFuture[struct{}](k)}
}

// Kick wakes the waiting listener, or makes its next wait return at
// once.
func (kk *Kick) Kick() {
	if !kk.fut.Done() {
		kk.fut.Complete(struct{}{}, nil)
	}
}

// wait blocks p for up to d and reports whether it was kicked; a
// consumed kick re-arms on a fresh future.
func (kk *Kick) wait(p *sim.Proc, d time.Duration) bool {
	if _, _, kicked := kk.fut.AwaitTimeout(p, d); !kicked {
		return false
	}
	kk.fut = sim.NewFuture[struct{}](kk.k)
	return true
}

// Listen runs the storage-queue listener loop on p until stop
// completes: poll once; hand a delivered message to handle and poll
// again at once; after an empty poll wait for the current interval or
// a kick. The interval starts at 100 ms, doubles after every wait that
// times out up to maxPoll (30 s when maxPoll <= 0), and drops back to
// 100 ms on a delivery or a kick. Every poll, empty or not, is a billed
// transaction — the idle cost of the Azure queue trigger and the
// classic Durable task hub.
func (q *Queue) Listen(p *sim.Proc, maxPoll time.Duration, kick *Kick, stop *sim.Future[struct{}], handle func(*sim.Proc, *Message)) {
	if maxPoll <= 0 {
		maxPoll = defaultMaxPoll
	}
	interval := minPoll
	for !stop.Done() {
		if m, ok := q.TryDequeue(p); ok {
			interval = minPoll
			handle(p, m)
			continue
		}
		if kick.wait(p, interval) {
			interval = minPoll
		} else if interval *= 2; interval > maxPoll {
			interval = maxPoll
		}
	}
}
