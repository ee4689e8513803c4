package durable

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/chaos"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// chaosFixture is fixture() with a seed and a wired fault injector.
func chaosFixture(seed uint64, plan *chaos.Plan) (*sim.Kernel, *functions.Host, *Hub, *Client, *chaos.Injector) {
	k := sim.NewKernel(seed)
	params := platform.DefaultAzure()
	params.HTTPTriggerRTT = sim.Fixed{D: 10 * time.Millisecond}
	params.InstanceColdStart = sim.Fixed{D: 500 * time.Millisecond}
	params.Dispatch = sim.Fixed{D: 5 * time.Millisecond}
	params.ScaleEvalInterval = 2 * time.Second
	params.ScaleOutStep = 2
	params.MaxInstances = 20
	params.IdleInstanceTimeout = 10 * time.Minute
	params.EntityOpOverhead = sim.Fixed{D: 20 * time.Millisecond}
	params.EntityStateRTT = sim.Fixed{D: 20 * time.Millisecond}
	params.HistoryReplayPerEvent = 5 * time.Millisecond
	h := functions.NewHost(k, "app", params, &instr.Hooks{})
	hub := NewHub(k, h, "hub")
	inj := chaos.NewInjector(k, plan)
	h.Hooks().Chaos = inj
	return k, h, hub, NewClient(hub), inj
}

// registerChain installs the add1 activity and a 3-step chain
// orchestrator (the durable_test.go workload, reused under faults).
func registerChain(t *testing.T, hub *Hub) {
	t.Helper()
	if err := hub.RegisterActivity("add1", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(50 * time.Millisecond)
		var n int
		if err := json.Unmarshal(in, &n); err != nil {
			return nil, err
		}
		return json.Marshal(n + 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("chain", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		v := input
		for i := 0; i < 3; i++ {
			out, err := ctx.CallActivity("add1", v).Await()
			if err != nil {
				return nil, err
			}
			v = out
		}
		return v, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOrchestrationSurvivesHostRecycle crashes the function host twice
// mid-dispatch (pre-handler): the work items redeliver and the
// orchestration must complete with the fault-free result.
func TestOrchestrationSurvivesHostRecycle(t *testing.T) {
	k, host, hub, client, inj := chaosFixture(1, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "azfunc", Kind: chaos.Crash, Rate: 1, MaxFaults: 2},
	}})
	registerChain(t, hub)
	var out []byte
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, hd, err = client.Run(p, "chain", []byte("0"))
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "3" {
		t.Fatalf("output = %s, want 3 (host recycles must not lose work)", out)
	}
	if hd.Status() != StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	st := inj.Stats()
	if st.Crashes != 2 || st.Redispatches != 2 {
		t.Fatalf("stats = %+v, want 2 crashes and 2 redispatches", st)
	}
}

// TestReplayRecoversEpisodeCrashes crashes one orchestrator episode
// before history persistence and another after it (but before message
// acknowledgment). Replay must recover both: the redelivered messages
// re-fold, history dedup by TaskID absorbs the already-persisted rows,
// and the result is byte-identical to the fault-free run.
func TestReplayRecoversEpisodeCrashes(t *testing.T) {
	k, host, hub, client, inj := chaosFixture(1, &chaos.Plan{
		RedeliveryDelay: 2 * time.Second,
		Rules: []chaos.Rule{
			{Component: "durable", Kind: chaos.Crash, Rate: 1, MaxFaults: 1},
			{Component: "durable", Kind: chaos.CrashAfterPersist, Rate: 1, MaxFaults: 1},
		},
	})
	registerChain(t, hub)
	var out []byte
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, hd, err = client.Run(p, "chain", []byte("0"))
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "3" {
		t.Fatalf("output = %s, want 3 (replay must recover both crash windows)", out)
	}
	if hd.Status() != StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	st := inj.Stats()
	if st.Crashes != 2 {
		t.Fatalf("injected crashes = %d, want 2 (before and after persist)", st.Crashes)
	}
	if st.RecoveryDelay < 4*time.Second {
		t.Fatalf("recovery delay = %v, want >= 2 redeliveries x 2s", st.RecoveryDelay)
	}
	// The crash-after-persist episode persisted its rows; the re-run must
	// not have duplicated completion bookkeeping (E2E would be bogus).
	if hd.E2E() <= 0 {
		t.Fatalf("E2E = %v", hd.E2E())
	}
}

// TestWaitForExternalEventUnderChaos is the satellite coverage for the
// external-event path under host crashes plus duplicated control
// messages: the raised event must survive redelivery and the
// orchestration must complete exactly once with the right decision.
func TestWaitForExternalEventUnderChaos(t *testing.T) {
	k, host, hub, client, inj := chaosFixture(3, &chaos.Plan{
		RedeliveryDelay: 2 * time.Second,
		Rules: []chaos.Rule{
			{Component: "durable", Kind: chaos.Crash, Rate: 1, MaxFaults: 1},
			{Component: "azfunc", Kind: chaos.Crash, Rate: 0.3, MaxFaults: 2},
			{Component: "queue", Kind: chaos.Duplicate, Rate: 0.3},
		},
	})
	if err := hub.RegisterOrchestrator("approval", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		decision, err := ctx.WaitForExternalEvent("Approve").Await()
		if err != nil {
			return nil, err
		}
		return append([]byte("decided:"), decision...), nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		hd, err = client.StartOrchestration(p, "approval", nil)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		p.Sleep(time.Minute)
		if err := client.RaiseEvent(p, hd.ID, "Approve", []byte("yes")); err != nil {
			t.Errorf("raise: %v", err)
			return
		}
		out, err = hd.Wait(p)
		if err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if string(out) != "decided:yes" {
		t.Fatalf("out = %s, want decided:yes", out)
	}
	if hd.Status() != StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	if inj.Stats().Injected == 0 {
		t.Fatal("no faults injected; the test exercised nothing")
	}
}

// TestWaitAnyUnderChaos races a fast activity against a long timer
// while the host recycles and episodes crash: recovery delays must not
// flip the outcome, and the completion must fire exactly once.
func TestWaitAnyUnderChaos(t *testing.T) {
	k, host, hub, client, inj := chaosFixture(5, &chaos.Plan{
		RedeliveryDelay: 2 * time.Second,
		Rules: []chaos.Rule{
			{Component: "azfunc", Kind: chaos.Crash, Rate: 0.5, MaxFaults: 3},
			{Component: "durable", Kind: chaos.CrashAfterPersist, Rate: 1, MaxFaults: 1},
		},
	})
	if err := hub.RegisterActivity("work", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(100 * time.Millisecond)
		return []byte("work"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("withTimeout", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		work := ctx.CallActivity("work", nil)
		timeout := ctx.CreateTimer(10 * time.Minute)
		if ctx.WaitAny(work, timeout) == 1 {
			return []byte("timeout"), nil
		}
		return work.Await()
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, _, err = client.Run(p, "withTimeout", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "work" {
		t.Fatalf("out = %s, want work (recovery delays are far below the timer)", out)
	}
	if inj.Stats().Crashes == 0 {
		t.Fatal("no crashes injected; the test exercised nothing")
	}
}

// TestEntityConvergenceUnderDuplicates is the satellite property: a
// monotonic entity operation (max) signaled through duplicated queue
// deliveries must converge to the same state as a fault-free run —
// at-least-once delivery with an idempotent fold.
func TestEntityConvergenceUnderDuplicates(t *testing.T) {
	values := []int{3, 1, 4, 1, 5, 9, 2, 6}
	totalDups := int64(0)
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			k, host, hub, client, inj := chaosFixture(seed, &chaos.Plan{Rules: []chaos.Rule{
				{Component: "queue", Kind: chaos.Duplicate, Rate: 0.5},
			}})
			if err := hub.RegisterEntity("Max", 128, func(ctx *EntityContext, op string, input []byte) ([]byte, error) {
				ctx.Busy(5 * time.Millisecond)
				var v, cur int
				if err := json.Unmarshal(input, &v); err != nil {
					return nil, err
				}
				if ctx.HasState() {
					if err := json.Unmarshal(ctx.State(), &cur); err != nil {
						return nil, err
					}
				}
				if v > cur {
					cur = v
				}
				s, _ := json.Marshal(cur)
				ctx.SetState(s)
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			var got int
			var ok bool
			drive(k, host, func(p *sim.Proc) {
				id := EntityID{Name: "Max", Key: "m"}
				for _, v := range values {
					in, _ := json.Marshal(v)
					if err := client.SignalEntity(p, id, "fold", in); err != nil {
						t.Errorf("signal: %v", err)
						return
					}
					p.Sleep(100 * time.Millisecond)
				}
				// Wait past the visibility timeout so duplicate ghosts
				// have re-delivered and folded before we read.
				p.Sleep(2 * time.Minute)
				var state []byte
				state, ok = client.ReadEntityState(p, id)
				if ok {
					if err := json.Unmarshal(state, &got); err != nil {
						t.Errorf("state: %v", err)
					}
				}
			})
			if !ok {
				t.Fatal("entity has no state")
			}
			if got != 9 {
				t.Fatalf("entity state = %d, want 9 (max must converge despite duplicates)", got)
			}
			totalDups += inj.Stats().Duplicates
		})
	}
	if totalDups == 0 {
		t.Fatal("no duplicate deliveries injected across any seed")
	}
}
