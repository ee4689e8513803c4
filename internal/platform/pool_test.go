package platform

import (
	"testing"
	"time"

	"statebench/internal/obs/instr"
	"statebench/internal/sim"
)

func TestPoolWarmEntryLifecycle(t *testing.T) {
	p := &Pool{KeepAlive: 8 * time.Minute, Hooks: &instr.Hooks{}}
	if _, ok := p.TakeWarm(0); ok {
		t.Fatal("empty pool yielded a warm container")
	}
	p.Release(100) // expires at 100+KeepAlive
	p.Release(200)
	if got := p.WarmCount(150); got != 2 {
		t.Fatalf("WarmCount = %d, want 2", got)
	}
	// LIFO reuse: the most recently released container comes back first.
	exp, ok := p.TakeWarm(150)
	if !ok || exp != 200+sim.Time(p.KeepAlive) {
		t.Fatalf("TakeWarm = (%v, %v), want newest release", exp, ok)
	}
	// Expired entries are discarded on the way.
	if _, ok := p.TakeWarm(sim.Time(time.Hour)); ok {
		t.Fatal("expired warm container was reused")
	}
	if got := p.WarmCount(sim.Time(time.Hour)); got != 0 {
		t.Fatalf("WarmCount after expiry = %d, want 0", got)
	}

	p.RecordCold(3 * time.Second)
	p.RecordCold(1 * time.Second)
	st := p.Stats()
	if st.ColdStarts != 2 || len(st.ColdDelays) != 2 || st.ColdDelays[0] != 3*time.Second {
		t.Fatalf("cold stats = %+v", st)
	}
	p.ResetStats()
	if st := p.Stats(); st.ColdStarts != 0 || st.ColdDelays != nil || st.MaxReady != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestPoolInstanceLifecycle(t *testing.T) {
	p := &Pool{Hooks: &instr.Hooks{}}
	p.BeginStart()
	if p.Starting() != 1 || p.Provisioning() != 1 || p.Ready() != 0 {
		t.Fatalf("after BeginStart: starting=%d ready=%d", p.Starting(), p.Ready())
	}
	a := p.FinishStart(10)
	if p.Ready() != 1 || p.Starting() != 0 || a.ID != 1 || a.IdleSince != 10 {
		t.Fatalf("after FinishStart: ready=%d container=%+v", p.Ready(), a)
	}
	p.BeginStart()
	b := p.FinishStart(20)
	if b.ID != 2 || p.Stats().MaxReady != 2 || p.Stats().ColdStarts != 2 {
		t.Fatalf("second instance: %+v stats=%+v", b, p.Stats())
	}

	p.PushIdle(a, 30)
	p.PushIdle(b, 40)
	if p.IdleCount() != 2 {
		t.Fatalf("IdleCount = %d, want 2", p.IdleCount())
	}
	// FIFO: the longest-idle instance is dispatched first.
	got, ok := p.PopIdle()
	if !ok || got != a {
		t.Fatalf("PopIdle = %v, want instance a", got)
	}
	p.PushIdle(a, 50)

	// Reap with a cutoff past only b's idle start: b is retired, a
	// (idle since 50) survives.
	if n := p.ReapIdle(45); n != 1 {
		t.Fatalf("ReapIdle reaped %d, want 1", n)
	}
	if p.Ready() != 1 || p.IdleCount() != 1 || !b.Stopped {
		t.Fatalf("after reap: ready=%d idle=%d bStopped=%v", p.Ready(), p.IdleCount(), b.Stopped)
	}

	// Retire the survivor (chaos host recycle).
	surv, _ := p.PopIdle()
	p.Retire(surv)
	if p.Ready() != 0 || !surv.Stopped {
		t.Fatalf("after retire: ready=%d stopped=%v", p.Ready(), surv.Stopped)
	}

	p.ResetStats()
	if st := p.Stats(); st.MaxReady != 0 || st.ColdStarts != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// TestPoolWarmRingAtScale exercises the amortized-O(1) warm path the
// traffic engine leans on: a large churn of releases and takes with
// interleaved expiry, including the prefix-slide compaction and the
// out-of-order-release fallback.
func TestPoolWarmRingAtScale(t *testing.T) {
	p := &Pool{KeepAlive: time.Minute, Hooks: &instr.Hooks{}}
	// Phase 1: release 10k containers at 1ms spacing, then let the
	// first half expire and verify count and LIFO take.
	for i := 0; i < 10000; i++ {
		p.Release(sim.Time(i) * sim.Time(time.Millisecond))
	}
	now := sim.Time(5000*time.Millisecond + time.Minute) // first 5001 expired
	if got := p.WarmCount(now); got != 4999 {
		t.Fatalf("WarmCount = %d, want 4999", got)
	}
	exp, ok := p.TakeWarm(now)
	if !ok || exp != sim.Time(9999*time.Millisecond)+sim.Time(p.KeepAlive) {
		t.Fatalf("TakeWarm = (%v, %v), want newest lease", exp, ok)
	}
	// Drain the rest; every take must return a strictly older lease.
	prev := exp
	n := 1
	for {
		e, ok := p.TakeWarm(now)
		if !ok {
			break
		}
		if e >= prev {
			t.Fatalf("take %d: lease %v not older than %v (LIFO broken)", n, e, prev)
		}
		prev = e
		n++
	}
	if n != 4999 {
		t.Fatalf("drained %d warm containers, want 4999", n)
	}
	// Phase 2: out-of-order release (backdated lease) must keep the
	// expiry ordering intact.
	p.Release(sim.Time(time.Hour))
	p.Release(sim.Time(time.Hour) - sim.Time(30*time.Second)) // backdated
	if got := p.WarmCount(sim.Time(time.Hour)); got != 2 {
		t.Fatalf("WarmCount after backdated release = %d, want 2", got)
	}
	first, _ := p.TakeWarm(sim.Time(time.Hour))
	second, _ := p.TakeWarm(sim.Time(time.Hour))
	if first < second {
		t.Fatalf("takes out of order after backdated release: %v then %v", first, second)
	}
}
