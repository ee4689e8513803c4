package durable

import (
	"encoding/json"
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// These tests pin down the task-hub dead-letter audit: the Durable Task
// Framework redelivers its own control and work-item messages forever —
// MaxDequeueCount stays 0 on task-hub queues — because a dead-lettered
// control message would strand its orchestration. The Netherite
// counterpart (internal/azure/netherite) needs no such carve-out at
// all: its transport deduplicates by partition sequence number, so
// there is no visibility-timeout/poison-message machinery to disable.

// TestTaskHubQueuesDisableDeadLettering pins the liveness carve-out
// itself: every queue the hub builds must redeliver without limit.
func TestTaskHubQueuesDisableDeadLettering(t *testing.T) {
	qp := durableQueueParams(platform.DefaultAzure())
	if qp.MaxDequeueCount != 0 {
		t.Fatalf("task-hub MaxDequeueCount = %d, want 0 (unlimited redelivery; dead-lettering a control message strands its orchestration)", qp.MaxDequeueCount)
	}
}

// TestChainSurvivesHeavyRedeliveryWithoutDeadLetters drives the chain
// through a redelivery storm heavy enough to exhaust the storage-queue
// default MaxDequeueCount several times over. With the carve-out, no
// message is ever poisoned and the orchestration completes with the
// fault-free result.
func TestChainSurvivesHeavyRedeliveryWithoutDeadLetters(t *testing.T) {
	k, host, hub, client, inj := chaosFixture(2, &chaos.Plan{
		RedeliveryDelay: time.Second,
		Rules: []chaos.Rule{
			{Component: "queue", Kind: chaos.Redeliver, Rate: 0.6, MaxFaults: 10},
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
		t.Fatalf("output = %s, want 3", out)
	}
	if hd.Status() != StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	if inj.Stats().Redeliveries == 0 {
		t.Fatal("no redeliveries injected; the storm exercised nothing")
	}
	var deadLettered int64
	for _, q := range hub.classic().control {
		deadLettered += q.Stats().DeadLettered
	}
	deadLettered += hub.classic().workItems.Stats().DeadLettered
	if deadLettered != 0 || inj.Stats().DeadLetters != 0 {
		t.Fatalf("dead-lettered = %d (injector %d), want 0: task-hub messages must redeliver forever", deadLettered, inj.Stats().DeadLetters)
	}
}

// TestDuplicateControlGhostsBookNoRecoveryDelay is the durable-level
// regression for the RecoveryDelay accounting fix: duplicated queue
// deliveries (the ghost copies the entity-convergence test folds) are
// successful deliveries, so they must contribute zero recovery delay —
// only failed attempts wait out the visibility timeout.
func TestDuplicateControlGhostsBookNoRecoveryDelay(t *testing.T) {
	k, host, hub, client, inj := chaosFixture(4, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Duplicate, Rate: 0.5},
	}})
	if err := hub.RegisterEntity("Max", 128, func(ctx *EntityContext, op string, input []byte) ([]byte, error) {
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
	drive(k, host, func(p *sim.Proc) {
		id := EntityID{Name: "Max", Key: "m"}
		for _, v := range []int{3, 9, 5} {
			in, _ := json.Marshal(v)
			if err := client.SignalEntity(p, id, "fold", in); err != nil {
				t.Errorf("signal: %v", err)
				return
			}
			p.Sleep(100 * time.Millisecond)
		}
		p.Sleep(2 * time.Minute) // let ghosts re-deliver and fold
		state, ok := client.ReadEntityState(p, id)
		if !ok || string(state) != "9" {
			t.Errorf("state = %s ok=%v, want 9", state, ok)
		}
	})
	st := inj.Stats()
	if st.Duplicates == 0 {
		t.Fatal("no duplicates injected; the test exercised nothing")
	}
	if st.RecoveryDelay != 0 {
		t.Fatalf("RecoveryDelay = %v, want 0: every injected fault was a successfully delivered duplicate", st.RecoveryDelay)
	}
}
