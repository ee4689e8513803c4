// Package netherite simulates the Netherite backend for the Durable
// Task Framework ("Serverless Workflows with Durable Functions and
// Netherite", Burckhardt et al.): the vendor's shipped replacement for
// the classic Azure Storage task hub. Instead of billed queues polled
// by listeners and a history table written per episode, work is routed
// to N partitions, each partition appends events to a commit log whose
// writes are batched — group commits amortize one storage round trip
// over every event that arrived in the same commit window — and
// execution is speculative: episodes run against uncommitted state and
// are deterministically aborted and replayed if a crash loses an
// uncommitted batch.
//
// Determinism contract (the property the tier-2 gate enforces): the
// store draws NOTHING from the kernel's RNG streams and all latencies
// are fixed constants, so results are byte-identical for a given seed.
// Stronger, they are byte-identical across partition counts: delivery
// latency is partition-independent, commit windows are global
// wall-clock-aligned (one group commit per window hub-wide, modeling
// the shared storage-account batch ingress), and chaos decisions key on
// instance/orchestrator names — never on partition identity. Partition
// count changes how records are sharded across logs, not when anything
// happens or what anything costs.
package netherite

import (
	"hash/fnv"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/chaos"
	"statebench/internal/obs/instr"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// Fixed latency model. No RNG: every constant below is exact.
const (
	// CommitInterval is the group-commit cadence: appends accumulated in
	// one window become durable together at the window boundary.
	CommitInterval = 20 * time.Millisecond
	// AppendRTT is the storage round trip of one group commit — paid
	// once per non-empty window, not once per event.
	AppendRTT = 2 * time.Millisecond
	// DeliverLatency is the intra-hub push delivery time of one
	// envelope (EventHubs-style transport, no polling).
	DeliverLatency = 1 * time.Millisecond
	// SubmitLatency is the send cost charged to a client process.
	SubmitLatency = 200 * time.Microsecond
	// StateAccessLatency is the in-memory (partition-cached) entity
	// state and history access cost.
	StateAccessLatency = 100 * time.Microsecond
)

// DefaultPartitions matches the Netherite paper's default task-hub
// layout. Any count yields byte-identical results (see package doc).
const DefaultPartitions = 8

// partition is one commit log. Envelope routing, history records, and
// entity state shard across partitions by instance key; the per-
// partition fields exist for structural accounting (logs, dedup
// tables), never for timing.
type partition struct {
	// nextSeq stamps outbound envelopes for exactly-once delivery.
	nextSeq int64
	// applied records delivered sequence numbers: a redelivered ghost
	// with a seen seq is dropped, which is why Netherite needs no
	// MaxDequeueCount/poison-message carve-out.
	applied map[int64]bool
	// records counts log records appended (committed) to this partition.
	records int64
}

// Store implements durable.Store as a partitioned, group-committed,
// speculative commit log.
type Store struct {
	k          *sim.Kernel
	name       string
	hub        *durable.Hub
	partitions []*partition

	// hist and entState are the speculative materialized state: reads
	// see appended-but-uncommitted records, which is what lets episodes
	// progress ahead of durability.
	hist     map[string][]durable.Record
	entState map[string][]byte

	// Hub-wide commit-window accounting (partition-count invariant).
	lastWindow int64 // last window index with a billed group commit
	txns       int64 // billed storage transactions (group commits)
	appended   int64 // committed records across all partitions
	lost       int64 // records discarded by lost batches
	droppedDup int64 // ghost deliveries dropped by seq dedup

	// hooks is the deployment's instrumentation bundle: transport hops
	// emit hop spans, and the injector drives commit-batch loss and
	// duplicate ghost deliveries.
	hooks *instr.Hooks
}

// NewStore builds a Netherite store with n partitions
// (DefaultPartitions if n <= 0), instrumented through hooks. Pass it
// to durable.NewHubWithStore.
func NewStore(k *sim.Kernel, name string, n int, hooks *instr.Hooks) *Store {
	if n <= 0 {
		n = DefaultPartitions
	}
	s := &Store{
		k:        k,
		name:     name,
		hist:     make(map[string][]durable.Record),
		entState: make(map[string][]byte),
		hooks:    hooks,
	}
	for i := 0; i < n; i++ {
		s.partitions = append(s.partitions, &partition{applied: make(map[int64]bool)})
	}
	return s
}

// Start implements durable.Store. Delivery is push-based: no listener
// processes, no polling transactions.
func (s *Store) Start(h *durable.Hub) { s.hub = h }

// Partitions returns the partition count (structural accounting).
func (s *Store) Partitions() int { return len(s.partitions) }

// partitionOf shards an instance onto a partition (same FNV routing as
// the classic store's control-queue partitioning).
func (s *Store) partitionOf(instance string) *partition {
	f := fnv.New32a()
	_, _ = f.Write([]byte(instance))
	return s.partitions[int(f.Sum32())%len(s.partitions)]
}

// SendControl implements durable.Store: push the envelope to its
// partition after the fixed transport latency.
func (s *Store) SendControl(m durable.Envelope) error {
	s.transport(m, false)
	return nil
}

// SendControlFromProc implements durable.Store, charging the submit
// cost to the sending process.
func (s *Store) SendControlFromProc(p *sim.Proc, m durable.Envelope) error {
	p.Sleep(SubmitLatency)
	s.transport(m, false)
	return nil
}

// SendWork implements durable.Store: activity work items ride the same
// partitioned transport.
func (s *Store) SendWork(m durable.Envelope) error {
	s.transport(m, true)
	return nil
}

// transport stamps the envelope with a partition sequence number and
// schedules delivery. Chaos can inject a duplicate ghost: the same
// envelope, same seq, redelivered after the visibility window — the
// dedup table drops it on arrival. Fault decisions key on the instance
// name, so schedules are partition-count independent.
func (s *Store) transport(m durable.Envelope, work bool) {
	part := s.partitionOf(m.Instance)
	seq := part.nextSeq
	part.nextSeq++
	start := s.k.Now()
	s.deliver(DeliverLatency, part, seq, m, work, start)
	if s.hooks.Chaos != nil {
		if flt, ok := s.hooks.Chaos.Next(m.TraceCtx(), "netherite-transport", m.Instance); ok && flt.Kind == chaos.Duplicate {
			s.deliver(DeliverLatency+s.hooks.Chaos.RedeliveryDelay(), part, seq, m, work, start)
		}
	}
}

// deliver routes one (possibly duplicate) envelope copy into the hub
// after delay, dropping it if its sequence number was already applied.
func (s *Store) deliver(delay time.Duration, part *partition, seq int64, m durable.Envelope, work bool, start sim.Time) {
	s.k.After(delay, func() {
		if part.applied[seq] {
			s.droppedDup++
			return
		}
		part.applied[seq] = true
		if s.hooks.Tracer.Enabled() {
			s.hooks.Tracer.Emit(span.KindHop, "netherite/"+s.name, start, s.k.Now(), m.TraceCtx())
		}
		if work {
			s.hub.DeliverWork(m)
		} else {
			s.hub.DeliverControl(m)
		}
	})
}

// LoadHistory implements durable.Store: an in-memory partition-cache
// read — speculative records included — at fixed cost.
func (s *Store) LoadHistory(p *sim.Proc, instance string) []durable.Record {
	p.Sleep(StateAccessLatency)
	recs := s.hist[instance]
	out := make([]durable.Record, len(recs))
	copy(out, recs)
	return out
}

// CommitEpisode implements durable.Store. The episode's new records
// are appended to the partition log and become immediately visible to
// subsequent episodes (speculation); durability arrives at the next
// global commit-window boundary plus one append round trip, which is
// the settle delay the hub applies to client-visible completion. One
// group commit is billed per non-empty window hub-wide.
//
// Chaos injects the two crash windows at the commit point. A Crash
// loses the uncommitted batch — the just-appended records are rolled
// back, counted as wasted speculative work, and the hub aborts and
// replays the episode from durable state. A CrashAfterPersist crashes
// the partition after the batch committed; because the commit log
// integrates state AND message cursors, the triggering messages were
// acknowledged atomically with the batch, so nothing redelivers — the
// crash costs one partition-rehydration delay on the settle path
// instead of the classic hub's redeliver-and-deduplicate replay. That
// asymmetry is the design point the dead-letter audit pins down:
// exactly-once falls out of the log, not out of visibility-timeout or
// poison-message machinery.
func (s *Store) CommitEpisode(p *sim.Proc, instance, orchestrator string, tctx sim.TraceContext, recs []durable.Record) (durable.CommitVerdict, time.Duration) {
	if len(recs) == 0 {
		return durable.CommitOK, 0
	}
	if s.hooks.Chaos != nil {
		if flt, ok := s.hooks.Chaos.Next(tctx, "netherite", orchestrator); ok {
			switch flt.Kind {
			case chaos.Crash:
				s.lost += int64(len(recs))
				s.hooks.Chaos.NoteWastedWork(len(recs))
				return durable.CommitLost, 0
			case chaos.CrashAfterPersist:
				s.append(instance, recs)
				// The partition is down until it rehydrates from the
				// committed log; the episode's worker stalls with it, so
				// the delay propagates to every downstream dispatch.
				rehydrate := s.hooks.Chaos.RedeliveryDelay()
				s.hooks.Chaos.NoteRecovery(rehydrate)
				p.Sleep(rehydrate)
				_, settle := s.commitWindow(p.Now())
				return durable.CommitOK, settle
			}
		}
	}
	s.append(instance, recs)
	_, settle := s.commitWindow(p.Now())
	return durable.CommitOK, settle
}

// append materializes recs into the speculative history and partition
// log.
func (s *Store) append(instance string, recs []durable.Record) {
	s.hist[instance] = append(s.hist[instance], recs...)
	part := s.partitionOf(instance)
	part.records += int64(len(recs))
	s.appended += int64(len(recs))
}

// commitWindow bills the group commit covering virtual time now and
// returns the window index plus the settle delay until the batch is
// durable (next global boundary + append round trip).
func (s *Store) commitWindow(now sim.Time) (int64, time.Duration) {
	window := int64(now/sim.Time(CommitInterval)) + 1
	if window != s.lastWindow {
		s.lastWindow = window
		s.txns++
	}
	boundary := sim.Time(window) * sim.Time(CommitInterval)
	return window, time.Duration(boundary-now) + AppendRTT
}

// PurgeHistory implements durable.Store (ContinueAsNew).
func (s *Store) PurgeHistory(p *sim.Proc, instance string) {
	p.Sleep(StateAccessLatency)
	delete(s.hist, instance)
}

// ReadEntityState implements durable.Store: a partition-cache read.
func (s *Store) ReadEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	p.Sleep(StateAccessLatency)
	data, ok := s.entState[instance]
	return data, ok
}

// WriteEntityState implements durable.Store: the new state is one log
// record, group-committed with everything else in its window.
func (s *Store) WriteEntityState(p *sim.Proc, instance string, data []byte) {
	s.entState[instance] = data
	part := s.partitionOf(instance)
	part.records++
	s.appended++
	s.commitWindow(p.Now())
}

// QueryEntityState implements durable.Store (client status query).
func (s *Store) QueryEntityState(p *sim.Proc, instance string) ([]byte, bool) {
	p.Sleep(StateAccessLatency)
	data, ok := s.entState[instance]
	return data, ok
}

// PeekEntityState implements durable.Store (unbilled inspection).
func (s *Store) PeekEntityState(instance string) ([]byte, bool) {
	data, ok := s.entState[instance]
	return data, ok
}

// Transactions implements durable.Store: group commits billed so far —
// the order-of-magnitude reduction vs. the classic hub's per-operation
// queue and table traffic.
func (s *Store) Transactions() int64 { return s.txns }

// ResetStats implements durable.Store.
func (s *Store) ResetStats() {
	s.txns = 0
	s.appended = 0
	s.lost = 0
	s.droppedDup = 0
	for _, part := range s.partitions {
		part.records = 0
	}
}

// AppendedRecords returns committed log records across all partitions.
func (s *Store) AppendedRecords() int64 { return s.appended }

// LostRecords returns speculative records discarded by lost batches.
func (s *Store) LostRecords() int64 { return s.lost }

// DroppedDuplicates returns ghost deliveries dropped by seq dedup —
// the mechanism that replaces the classic queues' visibility-timeout/
// MaxDequeueCount machinery.
func (s *Store) DroppedDuplicates() int64 { return s.droppedDup }

// History returns a copy of the materialized history for instance —
// an inspection seam for tests proving abort+replay converges on the
// same record sequence a fault-free run produces.
func (s *Store) History(instance string) []durable.Record {
	recs := s.hist[instance]
	out := make([]durable.Record, len(recs))
	copy(out, recs)
	return out
}

// PartitionRecords returns the committed record count per partition.
func (s *Store) PartitionRecords() []int64 {
	out := make([]int64, len(s.partitions))
	for i, part := range s.partitions {
		out[i] = part.records
	}
	return out
}
