package durable

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"statebench/internal/cloud/queue"
	"statebench/internal/cloud/table"
	"statebench/internal/obs/instr"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// classicStore is the Azure Storage task hub of the paper: partitioned
// control queues and a work-item queue polled by billed listeners, a
// history table queried and appended per episode, and an instances
// table for entity state. Every round trip is a billed storage
// transaction — the per-operation cost structure whose anomalies the
// paper measures (Fig 11a/11c/15) and which the Netherite store exists
// to amortize away.
type classicStore struct {
	k      *sim.Kernel
	h      *Hub
	params platform.AzureParams

	control   []*queue.Queue
	workItems *queue.Queue
	history   *table.Table
	instances *table.Table

	// Each listener's wake signal: one per control partition, one for
	// the work-item queue.
	kicks  []*queue.Kick
	wiKick *queue.Kick
}

// newClassicStore builds the storage-queue backend. Construction order
// (work-item queue, history, instances, control partitions) is part of
// the determinism contract with pre-seam builds: every named RNG
// stream and kernel allocation happens in the same sequence.
func newClassicStore(k *sim.Kernel, name string, params platform.AzureParams, hooks *instr.Hooks) *classicStore {
	s := &classicStore{
		k:         k,
		params:    params,
		workItems: queue.New(k, name+"-workitems", durableQueueParams(params), hooks),
		history:   table.New(k, name+"-history", table.DefaultParams()),
		instances: table.New(k, name+"-instances", table.DefaultParams()),
	}
	for i := 0; i < params.ControlQueuePartitions; i++ {
		s.control = append(s.control, queue.New(k, fmt.Sprintf("%s-control-%02d", name, i), durableQueueParams(params), hooks))
		s.kicks = append(s.kicks, queue.NewKick(k))
	}
	s.wiKick = queue.NewKick(k)
	return s
}

func durableQueueParams(p platform.AzureParams) queue.Params {
	qp := queue.DefaultParams()
	qp.MaxPayload = p.QueuePayloadLimit
	// The Durable Task Framework never poisons its own control or
	// work-item messages — it redelivers until the episode succeeds —
	// so dead-lettering is disabled on task-hub queues (liveness:
	// a dead-lettered control message would strand its orchestration).
	qp.MaxDequeueCount = 0
	return qp
}

// Start implements Store: bind the hub and launch the polling
// listeners. They poll with adaptive back-off — every poll is a billed
// transaction, the idle-cost mechanism the paper highlights — reset it
// on HTTP activity at the app, and stop with the host.
func (s *classicStore) Start(h *Hub) {
	s.h = h
	h.host.OnHTTPActivity(s.kickAll)
	stop := h.host.StopSignal()
	for i, q := range s.control {
		s.k.Spawn(fmt.Sprintf("durable/control-%d", i), func(p *sim.Proc) {
			q.Listen(p, s.params.DurableMaxPoll, s.kicks[i], stop, envelopes(h.handleControlMessage))
		})
	}
	s.k.Spawn("durable/workitems", func(p *sim.Proc) {
		s.workItems.Listen(p, s.params.DurableMaxPoll, s.wiKick, stop, envelopes(h.handleWorkItem))
	})
}

// envelopes adapts an envelope handler to a queue listener: each
// delivered body is decoded and handed on; an undecodable one is
// dropped.
func envelopes(handle func(Envelope)) func(*sim.Proc, *queue.Message) {
	return func(_ *sim.Proc, m *queue.Message) {
		var msg message
		if err := json.Unmarshal(m.Body, &msg); err == nil {
			handle(msg)
		}
	}
}

// kickAll resets every listener's poll back-off.
func (s *classicStore) kickAll() {
	for _, kk := range s.kicks {
		kk.Kick()
	}
	s.wiKick.Kick()
}

// partitionOf maps an instance ID onto a control-queue partition.
func (s *classicStore) partitionOf(instance string) int {
	f := fnv.New32a()
	_, _ = f.Write([]byte(instance))
	return int(f.Sum32()) % len(s.control)
}

// SendControl implements Store: enqueue a control message from kernel
// or callback context and kick the partition's listener. The hop span
// parents to the context stamped on the message.
func (s *classicStore) SendControl(m Envelope) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	p := s.partitionOf(m.Instance)
	if err := s.control[p].EnqueueFromKernelCtx(body, m.traceCtx()); err != nil {
		return err
	}
	s.kicks[p].Kick()
	return nil
}

// SendControlFromProc implements Store: enqueue a control message,
// charging queue latency to p.
func (s *classicStore) SendControlFromProc(p *sim.Proc, m Envelope) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	part := s.partitionOf(m.Instance)
	if err := s.control[part].Enqueue(p, body); err != nil {
		return err
	}
	s.kicks[part].Kick()
	return nil
}

// SendWork implements Store: enqueue an activity work item.
func (s *classicStore) SendWork(m Envelope) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := s.workItems.EnqueueFromKernelCtx(body, m.traceCtx()); err != nil {
		return err
	}
	s.wiKick.Kick()
	return nil
}

// LoadHistory implements Store: a billed table query every episode.
func (s *classicStore) LoadHistory(p *sim.Proc, instance string) []Record {
	rows := s.history.Query(p, instance)
	events := make([]Record, 0, len(rows))
	for _, r := range rows {
		var ev Record
		if err := json.Unmarshal(r.Data, &ev); err == nil {
			events = append(events, ev)
		}
	}
	return events
}

// CommitEpisode implements Store: one synchronous billed batch write;
// the classic hub never loses a written batch, and the write is
// durable the moment WriteBatch returns (zero settle delay).
func (s *classicStore) CommitEpisode(p *sim.Proc, instance, orchestrator string, tctx sim.TraceContext, recs []Record) (CommitVerdict, time.Duration) {
	if len(recs) == 0 {
		return CommitOK, 0
	}
	ents := make([]table.Entity, len(recs))
	for i, ev := range recs {
		data, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		ents[i] = table.Entity{PK: instance, RK: fmt.Sprintf("%06d", ev.Seq), Data: data}
	}
	s.history.WriteBatch(p, instance, ents)
	return CommitOK, 0
}

// PurgeHistory implements Store (ContinueAsNew).
func (s *classicStore) PurgeHistory(p *sim.Proc, instance string) {
	s.history.DeletePartition(p, instance)
}

// ReadEntityState implements Store: a billed table read plus the
// calibrated state-access latency.
func (s *classicStore) ReadEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	row, ok := s.instances.Read(p, instance, "state")
	p.Sleep(s.params.EntityStateRTT.Sample(s.h.rng))
	return row, ok
}

// WriteEntityState implements Store: a billed table write.
func (s *classicStore) WriteEntityState(p *sim.Proc, instance string, data []byte) {
	s.instances.Write(p, instance, "state", data)
}

// QueryEntityState implements Store: the client's status-query read,
// a billed table read without the executor's rehydration latency.
func (s *classicStore) QueryEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	return s.instances.Read(p, instance, "state")
}

// PeekEntityState implements Store: unbilled inspection.
func (s *classicStore) PeekEntityState(instance string) ([]byte, bool) {
	return s.instances.Peek(instance, "state")
}

// Transactions implements Store: billable storage transactions across
// the hub's queues and tables — the stateful cost component of Azure.
func (s *classicStore) Transactions() int64 {
	total := s.workItems.Stats().Transactions()
	for _, q := range s.control {
		total += q.Stats().Transactions()
	}
	total += s.history.Stats().Transactions()
	total += s.instances.Stats().Transactions()
	return total
}

// ResetStats implements Store.
func (s *classicStore) ResetStats() {
	s.workItems.ResetStats()
	for _, q := range s.control {
		q.ResetStats()
	}
	s.history.ResetStats()
	s.instances.ResetStats()
}
